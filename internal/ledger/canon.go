// Package ledger is the observatory's persistent memory: a
// content-addressed, append-only record of every terminal run, plus the
// rollup engine that turns those records into fleet-level aggregates.
//
// Three pieces, layered:
//
//  1. Canonical hashing (this file): SpecHash renders any JSON-shaped
//     value in canonical form (object keys sorted, no insignificant
//     whitespace, numeric literals preserved verbatim) and returns its
//     SHA-256. Two processes hashing the same normalized RunSpec get the
//     same spec_hash — the content-address cppserved's memo store keys
//     on. ResultDigest does the same for a run's final Result.
//  2. The ledger file (ledger.go): length+checksum framed NDJSON,
//     fsync'd per append, replayed corruption-tolerantly on boot — a
//     torn or damaged record is skipped and counted, never allowed to
//     take the rest of the file with it.
//  3. The rollup engine (rollup.go, diff.go): exact-conservation
//     aggregation of records per workload x config x compressor x state,
//     with stage-latency quantiles, traffic summaries and per-bucket
//     exemplar trace IDs, plus drift diffing between two aggregates.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Canonical renders v as canonical JSON: the value is marshalled, then
// re-parsed into a generic tree (numbers kept as their literal text) and
// re-marshalled, which sorts every object's keys and strips insignificant
// whitespace. Struct field order, map iteration order and indentation
// therefore cannot leak into the bytes, so the output is stable across
// processes, architectures and Go versions for any value whose JSON
// encoding is stable.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep numeric literals verbatim; no float re-formatting
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	return json.Marshal(tree) // maps marshal with sorted keys
}

// hashOf returns the SHA-256 of v's canonical JSON as lowercase hex.
func hashOf(v any) (string, error) {
	canon, err := Canonical(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// SpecHash content-addresses a run specification. Callers hash the
// *normalized* spec (defaults filled in, names canonicalised), so two
// requests that mean the same run hash identically even when one spelled
// the workload "mst" and the other "olden.mst".
func SpecHash(spec any) (string, error) { return hashOf(spec) }

// ResultDigest content-addresses a run's final result. Two runs of the
// same deterministic simulation must produce the same digest; a digest
// mismatch between equal spec_hashes is a determinism (or version) drift
// signal.
func ResultDigest(result any) (string, error) { return hashOf(result) }
