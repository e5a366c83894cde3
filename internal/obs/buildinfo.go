package obs

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// BuildInfo reports the binary's module version and VCS revision from
// the embedded build information ("(devel)"/"unknown" when absent, as
// in a plain `go test` binary).
func BuildInfo() (version, revision string) {
	version, revision = "(devel)", "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, revision
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" {
			revision = s.Value
			if len(revision) > 12 {
				revision = revision[:12]
			}
		}
	}
	return version, revision
}

// VersionLine renders the one-line -version output every cmd/* binary
// prints.
func VersionLine(binary string) string {
	version, revision := BuildInfo()
	return fmt.Sprintf("%s %s (rev %s, %s)", binary, version, revision, runtime.Version())
}

// RegisterBuildInfo exposes the build information as the conventional
// constant-1 info gauge.
func RegisterBuildInfo(r *Registry, binary string) {
	version, revision := BuildInfo()
	labels := fmt.Sprintf("binary=%q,version=%q,revision=%q,goversion=%q",
		binary, version, revision, runtime.Version())
	r.RegisterFunc(func(emit func(Sample)) {
		emit(Sample{Name: "mccp_build_info", Labels: labels, Value: 1})
	})
}
