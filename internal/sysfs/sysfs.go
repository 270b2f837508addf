// Package sysfs emulates the slice of the Linux sysfs file tree that DVFS
// software touches on an Android device: the cpufreq policy directory and
// the devfreq device directory.
//
// On the phone, both the stock governors' tunables and our controller's
// actuation happen through reads and writes of small text files such as
//
//	/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor
//	/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed
//	/sys/class/devfreq/soc:qcom,cpubw/governor
//
// Re-creating that file protocol keeps the simulated stack honest: the
// controller under test issues the same writes it would issue on the
// device, and the simulated kernel reacts through write hooks exactly the
// way cpufreq/devfreq drivers do.
package sysfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Errors returned by FS operations.
var (
	ErrNotExist   = errors.New("sysfs: no such file")
	ErrPermission = errors.New("sysfs: permission denied")
	ErrInvalid    = errors.New("sysfs: invalid argument")
	ErrBusy       = errors.New("sysfs: device or resource busy")
)

// WriteHook observes or intercepts a write. It receives the old and new
// values and may return an error to reject the write (the file keeps its
// old value), mirroring how kernel store() callbacks return -EINVAL.
type WriteHook func(path, old, new string) error

// ReadHook produces the current value of a dynamic file (e.g. cur_freq),
// overriding the stored value.
type ReadHook func(path string) string

// Interceptor observes every Write before the file's own write hook runs
// and may reject it, leaving the old value in place — the way a kernel
// store() callback returns -EBUSY or -EINVAL transiently regardless of
// the value written. One interceptor serves the whole tree; the fault
// injector installs it.
type Interceptor func(path, value string) error

// file is one sysfs node.
type file struct {
	value     string
	writable  bool
	writeHook WriteHook
	readHook  ReadHook
}

// FS is an in-memory sysfs tree. It is not safe for concurrent use: the
// goroutine that owns the phone owns its tree, and every reader and
// writer — governors, the controller's actuator, the fault injector,
// checkpoint capture and restore — runs on that goroutine. Other
// goroutines see device state only through cycle-boundary snapshots
// published by the owner.
type FS struct {
	files     map[string]*file
	intercept Interceptor
	gen       uint64
}

// New returns an empty tree.
func New() *FS {
	return &FS{files: make(map[string]*file)}
}

// clean canonicalizes a path: exactly one leading slash, no trailing
// slash, no surrounding whitespace. Trimming slashes can expose more
// whitespace ("a /" → "a "), so both are trimmed as one predicate, which
// makes clean idempotent.
//
// Already-canonical paths — every constant in this package, i.e. every
// path on the actuation hot path — are returned as-is without
// allocating: a path that starts with '/' whose second and last bytes
// are plain ASCII outside the trim set cannot lose anything to either
// trim, so the result would be the input verbatim.
func clean(path string) string {
	if n := len(path); n >= 2 && path[0] == '/' &&
		!cleanTrimByte(path[1]) && !cleanTrimByte(path[n-1]) {
		return path
	}
	return "/" + strings.TrimFunc(path, func(r rune) bool {
		return r == '/' || unicode.IsSpace(r)
	})
}

// cleanTrimByte reports whether b, as a single byte, could be trimmed by
// clean (or could begin a multi-byte rune that might be — anything
// ≥ utf8.RuneSelf is conservatively sent to the slow path).
func cleanTrimByte(b byte) bool {
	return b == '/' || b == ' ' || ('\t' <= b && b <= '\r') || b >= utf8.RuneSelf
}

// Create registers a file. Writable files accept Write; read-only files
// reject it with ErrPermission, like mode 0444 sysfs attributes.
func (fs *FS) Create(path, initial string, writable bool) {
	fs.files[clean(path)] = &file{value: initial, writable: writable}
	fs.gen++
}

// CreateDynamic registers a read-only file whose content is produced by
// hook at read time (like cpuinfo_cur_freq reading the hardware).
func (fs *FS) CreateDynamic(path string, hook ReadHook) {
	fs.files[clean(path)] = &file{readHook: hook}
}

// OnWrite attaches a write hook to an existing file. It panics if the file
// does not exist, because hooks are wired at device construction time and
// a missing file is a programming error.
func (fs *FS) OnWrite(path string, hook WriteHook) {
	f, ok := fs.files[clean(path)]
	if !ok {
		panic(fmt.Sprintf("sysfs: OnWrite on missing file %q", path))
	}
	f.writeHook = hook
}

// SetInterceptor installs (or, with nil, removes) the tree-wide write
// interceptor. An interceptor error aborts the write before the file's
// own hook runs and the file keeps its old value.
func (fs *FS) SetInterceptor(fn Interceptor) {
	fs.intercept = fn
}

// Exists reports whether path is registered.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[clean(path)]
	return ok
}

// Read returns the file's value.
func (fs *FS) Read(path string) (string, error) {
	p := clean(path)
	f, ok := fs.files[p]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if f.readHook != nil {
		return f.readHook(p), nil
	}
	return f.value, nil
}

// Write sets the file's value, running its write hook first. The value is
// trimmed of surrounding whitespace, as `echo val > file` would leave a
// newline.
func (fs *FS) Write(path, value string) error {
	p := clean(path)
	value = strings.TrimSpace(value)
	f, ok := fs.files[p]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if !f.writable {
		return fmt.Errorf("%w: %s", ErrPermission, path)
	}
	old, hook := f.value, f.writeHook
	if icept := fs.intercept; icept != nil {
		if err := icept(p, value); err != nil {
			return fmt.Errorf("sysfs: write %s=%q failed: %w", path, value, err)
		}
	}
	if hook != nil {
		if err := hook(p, old, value); err != nil {
			return fmt.Errorf("sysfs: write %s=%q rejected: %w", path, value, err)
		}
	}
	f.value = value
	fs.gen++
	return nil
}

// Set force-sets a value without running hooks or permission checks; for
// the kernel side (the simulation) to publish state.
func (fs *FS) Set(path, value string) {
	f, ok := fs.files[clean(path)]
	if !ok {
		panic(fmt.Sprintf("sysfs: Set on missing file %q", path))
	}
	f.value = value
	fs.gen++
}

// Gen returns the tree's generation: a counter that moves on every
// change to a stored value — a successful Write, Set, Create or
// RestoreValues. Consumers that derive state from stored files (the
// interactive governor's tunables) re-read them only when Gen has moved
// since their last read. Dynamic files are not covered: their content
// is computed at read time and can change without a write.
func (fs *FS) Gen() uint64 { return fs.gen }

// List returns all registered paths under prefix, sorted.
func (fs *FS) List(prefix string) []string {
	prefix = clean(prefix)
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Canonical paths of the Nexus 6 DVFS tree. All four CPUs share one
// policy, so like the paper we expose cpu0's policy directory only.
const (
	CPUFreqDir = "/sys/devices/system/cpu/cpu0/cpufreq"
	DevFreqDir = "/sys/class/devfreq/soc:qcom,cpubw"

	CPUScalingGovernor  = CPUFreqDir + "/scaling_governor"
	CPUScalingSetSpeed  = CPUFreqDir + "/scaling_setspeed"
	CPUScalingCurFreq   = CPUFreqDir + "/scaling_cur_freq"
	CPUScalingMinFreq   = CPUFreqDir + "/scaling_min_freq"
	CPUScalingMaxFreq   = CPUFreqDir + "/scaling_max_freq"
	CPUAvailableFreqs   = CPUFreqDir + "/scaling_available_frequencies"
	CPUAvailableGovs    = CPUFreqDir + "/scaling_available_governors"
	CPUInfoCurFreq      = CPUFreqDir + "/cpuinfo_cur_freq"
	DevFreqGovernor     = DevFreqDir + "/governor"
	DevFreqCurFreq      = DevFreqDir + "/cur_freq"
	DevFreqSetFreq      = DevFreqDir + "/userspace/set_freq"
	DevFreqMinFreq      = DevFreqDir + "/min_freq"
	DevFreqMaxFreq      = DevFreqDir + "/max_freq"
	DevFreqAvailFreqs   = DevFreqDir + "/available_frequencies"
	DevFreqAvailGovs    = DevFreqDir + "/available_governors"
	MPDecisionEnabled   = "/sys/module/msm_mpdecision/enabled"
	TouchBoostEnabled   = "/sys/module/msm_performance/touchboost"
	ProcLoadAvg         = "/proc/loadavg"
	ProcMemInfoFreeMB   = "/proc/meminfo_free_mb" // simplified meminfo
	PerfInstructionsRaw = "/sys/kernel/debug/perf/instructions"
)
