package ledger

import (
	"encoding/json"
	"testing"
)

// specFixture mirrors serve.RunSpec's JSON shape without importing serve
// (serve imports ledger). The golden hashes below are what any process,
// past or future, must produce for these specs — they are the keys of
// cppserved's memo store and of warm-started ledger history, so changing
// them is a breaking change to the ledger format.
type specFixture struct {
	Workload   string  `json:"workload"`
	Config     string  `json:"config"`
	Compressor string  `json:"compressor,omitempty"`
	Scale      int     `json:"scale,omitempty"`
	Functional bool    `json:"functional,omitempty"`
	Interval   int64   `json:"interval,omitempty"`
	Attr       bool    `json:"attr,omitempty"`
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

func TestSpecHashGolden(t *testing.T) {
	cases := []struct {
		name string
		spec specFixture
		want string
	}{
		{
			name: "mst CPP default interval",
			spec: specFixture{Workload: "olden.mst", Config: "CPP", Compressor: "paper", Interval: 10000},
			want: "d048d58de2db4373b79da1601be35e18b96a3332f75092b5eb0e30766e1fe129",
		},
		{
			name: "treeadd BCC fpc functional",
			spec: specFixture{Workload: "olden.treeadd", Config: "BCC", Compressor: "fpc",
				Scale: 2, Functional: true, Interval: 10000},
			want: "8a27413e19864194e00eb382e5cadf4b1c84ae3a7698a9abccdc807c772e37ab",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := SpecHash(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("SpecHash = %s, want %s (the ledger content-address changed!)", got, c.want)
			}
		})
	}
}

// TestCanonicalKeyOrderIndependence: the same logical object must hash
// identically no matter how the producer ordered its keys — a struct and
// a scrambled map with equal contents are the same content address.
func TestCanonicalKeyOrderIndependence(t *testing.T) {
	s := specFixture{Workload: "olden.mst", Config: "CPP", Compressor: "paper", Interval: 10000}
	m := map[string]any{
		"interval":   10000,
		"workload":   "olden.mst",
		"compressor": "paper",
		"config":     "CPP",
	}
	hs, err := SpecHash(s)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := SpecHash(m)
	if err != nil {
		t.Fatal(err)
	}
	if hs != hm {
		t.Errorf("struct hash %s != map hash %s", hs, hm)
	}
	canon, err := Canonical(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"compressor":"paper","config":"CPP","interval":10000,"workload":"olden.mst"}`
	if string(canon) != want {
		t.Errorf("canonical form:\n got %s\nwant %s", canon, want)
	}
}

func TestHashSensitivity(t *testing.T) {
	base := specFixture{Workload: "olden.mst", Config: "CPP", Compressor: "paper", Interval: 10000}
	h0, _ := SpecHash(base)
	for name, mut := range map[string]specFixture{
		"workload":   {Workload: "olden.em3d", Config: "CPP", Compressor: "paper", Interval: 10000},
		"config":     {Workload: "olden.mst", Config: "BCC", Compressor: "paper", Interval: 10000},
		"compressor": {Workload: "olden.mst", Config: "CPP", Compressor: "fpc", Interval: 10000},
		"scale":      {Workload: "olden.mst", Config: "CPP", Compressor: "paper", Interval: 10000, Scale: 3},
	} {
		h, _ := SpecHash(mut)
		if h == h0 {
			t.Errorf("changing %s did not change the spec hash", name)
		}
	}
}

func TestResultDigestDeterminism(t *testing.T) {
	type result struct {
		Benchmark string
		L1Misses  int64
		Traffic   float64
	}
	a, err := ResultDigest(result{"olden.mst", 123, 4567.25})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ResultDigest(result{"olden.mst", 123, 4567.25})
	c, _ := ResultDigest(result{"olden.mst", 124, 4567.25})
	if a != b {
		t.Errorf("identical results digest differently: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different results digest identically")
	}
	if len(a) != 64 {
		t.Errorf("digest is not sha256 hex: %q", a)
	}
}

// TestResultDigestRawStructEquivalence pins the property HTTP clients'
// digest checks rest on: digesting a result struct (as the server does
// for ledger records and sweep tables) and digesting its marshalled JSON
// (as a client does with a result received over HTTP) produce the same
// hash, because Canonical re-parses with UseNumber and re-marshals with
// sorted keys either way.
func TestResultDigestRawStructEquivalence(t *testing.T) {
	type result struct {
		Benchmark string  `json:"benchmark"`
		L1Misses  int64   `json:"l1_misses"`
		Traffic   float64 `json:"traffic"`
		IPC       float64 `json:"ipc"`
	}
	res := result{"olden.mst", 123, 4567.25, 0.731}
	fromStruct, err := ResultDigest(res)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fromRaw, err := ResultDigest(json.RawMessage(raw))
	if err != nil {
		t.Fatal(err)
	}
	if fromStruct != fromRaw {
		t.Fatalf("digest(struct) %s != digest(raw JSON) %s", fromStruct, fromRaw)
	}
	// Key order in the wire JSON must not matter either.
	reordered := []byte(`{"traffic":4567.25,"l1_misses":123,"ipc":0.731,"benchmark":"olden.mst"}`)
	fromReordered, err := ResultDigest(json.RawMessage(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if fromReordered != fromStruct {
		t.Fatalf("digest(reordered raw) %s != digest(struct) %s", fromReordered, fromStruct)
	}
}
