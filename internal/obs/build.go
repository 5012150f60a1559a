package obs

import (
	"io"
	"runtime"
	"runtime/debug"
	"sync"
)

// Build identifies the running binary: module path and version, VCS
// revision and commit time when the binary was built from a checkout,
// and the Go toolchain version. Fields the build info does not carry
// (e.g. under plain `go test`) read "unknown".
type Build struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	Revision  string `json:"revision"`
	VCSTime   string `json:"vcs_time"`
	GoVersion string `json:"go_version"`
	Dirty     bool   `json:"dirty,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// BuildInfo reads the binary's embedded build information once and
// caches it.
func BuildInfo() Build {
	buildOnce.Do(func() {
		buildInfo = Build{
			Module:    "unknown",
			Version:   "unknown",
			Revision:  "unknown",
			VCSTime:   "unknown",
			GoVersion: runtime.Version(),
		}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.Main.Path != "" {
			buildInfo.Module = bi.Main.Path
		}
		if bi.Main.Version != "" {
			buildInfo.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				if s.Value != "" {
					buildInfo.Revision = s.Value
				}
			case "vcs.time":
				if s.Value != "" {
					buildInfo.VCSTime = s.Value
				}
			case "vcs.modified":
				buildInfo.Dirty = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// buildRegistry holds the solved_build_info gauge: constant value 1 with
// the build identity carried in labels, the Prometheus convention for
// joining version metadata onto any other series.
var buildRegistry = sync.OnceValue(func() *Registry {
	r := NewRegistry()
	b := BuildInfo()
	r.GaugeVec("solved_build_info", "Build and version information (constant 1; identity in labels).",
		"module", "version", "revision", "vcs_time", "go_version").
		With(b.Module, b.Version, b.Revision, b.VCSTime, b.GoVersion).Set(1)
	return r
})

// WriteBuildMetric renders the solved_build_info gauge.
func WriteBuildMetric(w io.Writer) { buildRegistry().WritePrometheus(w) }
