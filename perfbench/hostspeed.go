package main

import (
	"math"
	"time"
)

// The host's speed drifts. On a shared 2-vCPU VM the same session takes
// 1.8 ms in one pass and 3.2 ms in the next, as the host switches
// between a fast and a slow state while other tenants load it, and the
// fast state's own speed drifts by 10-15% from minute to minute. A
// median over passes lands on whichever state held most of the run. So
// the untraced run keeps each session's best time over its passes, which
// reads the fast state, and scales every time it reports to one
// reference host speed: before every pass it times a fixed reference
// kernel, keeps the kernel's best time, and multiplies each reported
// time by refKernelMs over that best. When the whole host runs slower,
// the kernel's best time lengthens with the sessions' and the scaled
// figures stay put; a slower program lengthens the sessions alone. The
// kernel does not feel every slowdown the simulator feels (README.md,
// "Host speed"), so this removes part of the drift, not all of it.

// refKernelMs is the reference kernel's best time on the reference
// host, a 2-vCPU Intel Xeon VM at 2.0 GHz: reported times are in
// milliseconds on that host.
const refKernelMs = 0.55

// kernelSink keeps the kernel's result live.
var kernelSink float64

// timeKernel runs the reference kernel once and returns its host time
// in milliseconds. The kernel is fixed floating-point work on a 4 KiB
// array on the stack: it shares no code with the program, so no change
// to the program can move it, and it allocates nothing, so it leaves the
// allocation metrics alone.
func timeKernel() float64 {
	var buf [512]float64
	for i := range buf {
		buf[i] = float64(i)
	}
	t0 := time.Now()
	x := 1.0
	for r := 0; r < 400; r++ {
		for i := range buf {
			x = x*0.999999 + buf[i]*1e-9
			buf[i] = math.Sqrt(buf[i]*buf[i] + x)
		}
	}
	took := ms(time.Since(t0))
	kernelSink += x
	return took
}
