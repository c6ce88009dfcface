package sim

// The compressor axis of the configuration matrix. A compression scheme
// is selected by suffixing a config name with "@scheme" ("BCC@fpc",
// "LCC@bdi"); NewSystem parses the suffix and the resulting system's
// Name() carries it, so results, verification traffic rules and metric
// labels all self-describe. Only the configurations that actually
// compress transfers (BCC and LCC) accept a non-default scheme: CPP's
// half-slot architecture is wedded to the paper's 16-bit word codec (each
// word's VC flag is an independent tag bit, which only a WordCompressor
// can honour), and BC/HAC/BCP/VC never touch a compressor at all.

import (
	"fmt"
	"strings"

	"cppcache/internal/compress"
)

// SplitConfig splits a possibly scheme-qualified config name into its
// base config and scheme ("BCC@fpc" -> "BCC", "fpc"). Names without an
// "@" return an empty scheme, which compress.Get resolves to the default.
func SplitConfig(name string) (base, scheme string) {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i], strings.ToLower(strings.TrimSpace(name[i+1:]))
	}
	return name, ""
}

// WithCompressor composes a scheme-qualified config name. The empty
// scheme and the default scheme both yield the bare config, keeping
// default runs byte-identical to the pre-zoo simulator.
func WithCompressor(config, scheme string) string {
	s := strings.ToLower(strings.TrimSpace(scheme))
	if s == "" || s == compress.Default().Name() {
		return config
	}
	return config + "@" + s
}

// CompressorConfigs returns the configurations whose behaviour depends on
// the selected compression scheme.
func CompressorConfigs() []string { return []string{"BCC", "LCC"} }

// ValidateCompressor reports whether the named scheme can back the given
// base configuration: unknown schemes are rejected outright, and a
// non-default scheme is only accepted on a config that compresses.
func ValidateCompressor(config, scheme string) error {
	comp, err := compress.Get(scheme)
	if err != nil {
		return err
	}
	if comp.Name() == compress.Default().Name() {
		return nil // the paper's scheme backs everything, as before
	}
	base, _ := SplitConfig(config)
	for _, c := range CompressorConfigs() {
		if base == c {
			return nil
		}
	}
	if _, _, ok := cppVariant(base); ok {
		return fmt.Errorf("sim: config CPP is architecturally tied to the paper's per-word codec (VC flag per word); compressor %q cannot back it", comp.Name())
	}
	return fmt.Errorf("sim: config %s does not compress transfers; -compressor %q applies to %s",
		base, comp.Name(), strings.Join(CompressorConfigs(), " and "))
}

// resolveConfig parses a possibly scheme-qualified name, validates the
// combination and returns the base config, the canonical full name and
// the scheme.
func resolveConfig(name string) (base, canonical string, comp compress.Compressor, err error) {
	base, scheme := SplitConfig(name)
	comp, err = compress.Get(scheme)
	if err != nil {
		return "", "", nil, fmt.Errorf("sim: %w", err)
	}
	if err := ValidateCompressor(base, scheme); err != nil {
		return "", "", nil, err
	}
	return base, WithCompressor(base, scheme), comp, nil
}
