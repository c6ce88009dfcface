package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRunSpecDecode feeds arbitrary bytes through the exact decode +
// validate path POST /runs uses: whatever arrives, the server must not
// panic, and any spec that survives normalization must respect every
// admission bound.
func FuzzRunSpecDecode(f *testing.F) {
	f.Add([]byte(`{"workload":"treeadd","config":"CPP","functional":true}`))
	f.Add([]byte(`{"workload":"mst","scale":4096,"interval":1,"timeout_sec":3600}`))
	f.Add([]byte(`{"workload":"em3d","config":"bcc","compressor":"bdi","attr":true}`))
	f.Add([]byte(`{"workload":"health","panic_after":1}`))
	f.Add([]byte(`{"workload":"treeadd","timeout_sec":-1e308}`))
	f.Add([]byte(`{"workload":"","config":""}`))
	f.Add([]byte(`{"scale":-9223372036854775808}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, body []byte) {
		var spec RunSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		norm, err := normalize(spec)
		if err != nil {
			if !strings.Contains(err.Error(), ":") {
				t.Errorf("spec error %q lacks a field prefix", err)
			}
			return
		}
		if norm.Workload == "" || norm.Config == "" {
			t.Errorf("normalized spec lost workload/config: %+v", norm)
		}
		if norm.Scale < 0 || norm.Scale > MaxScale {
			t.Errorf("scale %d escaped bounds", norm.Scale)
		}
		if norm.Interval <= 0 || norm.Interval > MaxInterval {
			t.Errorf("interval %d escaped bounds", norm.Interval)
		}
		if norm.TimeoutSec < 0 || norm.TimeoutSec > MaxTimeoutSec {
			t.Errorf("timeout_sec %g escaped bounds", norm.TimeoutSec)
		}
	})
}
