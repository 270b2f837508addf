package sim

import (
	"aspeo/internal/platform"
	"aspeo/internal/pmu"
	"aspeo/internal/sysfs"
)

// This file is the thin adapter making Phone a platform.Device. Most of
// the capability surface (Clock, PowerMeter, ConfigActuator, Telemetry)
// is Phone's native method set; the handful of methods below bridge the
// remaining naming/shape gaps so consumers never need the concrete
// *Phone, *pmu.PMU or *sysfs.FS types.

var (
	_ platform.Device      = (*Phone)(nil)
	_ platform.BatchWriter = (*Phone)(nil)
)

// PMUSnapshot implements platform.PerfReader.
func (p *Phone) PMUSnapshot() pmu.Snapshot { return p.pmu.Snapshot() }

// SetPerfOverhead implements platform.PerfReader: the sampling tool's
// standing CPU and power cost, charged to the simulated device.
func (p *Phone) SetPerfOverhead(cpuFrac, standingW float64) {
	p.SetPerfOverheadFrac(cpuFrac)
	p.SetStandingOverlayW(standingW)
}

// ReadFile implements platform.SysfsView.
func (p *Phone) ReadFile(path string) (string, error) { return p.fs.Read(path) }

// WriteFile implements platform.SysfsView (userspace write semantics:
// permissions and hooks apply).
func (p *Phone) WriteFile(path, value string) error { return p.fs.Write(path, value) }

// WriteFiles implements platform.BatchWriter: sequential WriteFile
// semantics under one call, first error aborts. The controller's
// actuator batches one dwell slot's cpufreq+devfreq writes through it.
func (p *Phone) WriteFiles(writes []platform.FileWrite) error {
	for _, w := range writes {
		if err := p.fs.Write(w.Path, w.Value); err != nil {
			return err
		}
	}
	return nil
}

// SetFile implements platform.SysfsView (root semantics: hooks and
// permissions bypassed).
func (p *Phone) SetFile(path, value string) { p.fs.Set(path, value) }

// FileExists implements platform.SysfsView.
func (p *Phone) FileExists(path string) bool { return p.fs.Exists(path) }

// FilesGen implements platform.SysfsView.
func (p *Phone) FilesGen() uint64 { return p.fs.Gen() }

// CreateFile implements platform.SysfsView.
func (p *Phone) CreateFile(path, initial string, writable bool, hook sysfs.WriteHook) {
	p.fs.Create(path, initial, writable)
	if hook != nil {
		p.fs.OnWrite(path, hook)
	}
}
