// Package control implements the control-theory extensions the paper
// sketches in §6.2.1: a low-pass filter to smooth oscillating load
// measurements, a PID loop to stabilize the control output, and a 1-D
// Kalman filter to track the underlying load state through noisy
// readings. They plug into core.Options.Filter and are compared in the
// ablation benchmarks.
package control

// LowPass is a single-pole exponential smoothing filter:
// y += alpha*(x-y).
type LowPass struct {
	Alpha float64
	y     float64
	init  bool
}

// NewLowPass returns a filter with smoothing factor alpha in (0, 1];
// 1 passes inputs through, smaller values smooth harder.
func NewLowPass(alpha float64) *LowPass {
	if alpha <= 0 || alpha > 1 {
		panic("control: alpha must be in (0, 1]")
	}
	return &LowPass{Alpha: alpha}
}

// Update feeds one measurement and returns the filtered value.
func (f *LowPass) Update(x float64) float64 {
	if !f.init {
		f.y = x
		f.init = true
		return x
	}
	f.y += f.Alpha * (x - f.y)
	return f.y
}

// Value returns the current filtered value.
func (f *LowPass) Value() float64 { return f.y }

// Reset clears the filter state.
func (f *LowPass) Reset() { f.init = false; f.y = 0 }

// PID is a discrete proportional-integral-derivative controller.
type PID struct {
	Kp, Ki, Kd float64
	// IntegralClamp bounds the accumulated integral term (anti-windup);
	// 0 disables clamping.
	IntegralClamp float64

	integral float64
	prevErr  float64
	init     bool
}

// NewPID returns a PID controller with the given gains.
func NewPID(kp, ki, kd float64) *PID {
	return &PID{Kp: kp, Ki: ki, Kd: kd}
}

// Update feeds the current error (setpoint - measurement) with timestep
// dt and returns the control output.
func (c *PID) Update(err, dt float64) float64 {
	if dt <= 0 {
		dt = 1
	}
	c.integral += err * dt
	if c.IntegralClamp > 0 {
		if c.integral > c.IntegralClamp {
			c.integral = c.IntegralClamp
		}
		if c.integral < -c.IntegralClamp {
			c.integral = -c.IntegralClamp
		}
	}
	d := 0.0
	if c.init {
		d = (err - c.prevErr) / dt
	}
	c.prevErr = err
	c.init = true
	return c.Kp*err + c.Ki*c.integral + c.Kd*d
}

// Reset clears the controller state.
func (c *PID) Reset() { c.integral = 0; c.prevErr = 0; c.init = false }

// Kalman1D is a one-dimensional Kalman filter tracking a slowly varying
// scalar (the process load) through noisy measurements.
type Kalman1D struct {
	// Q is the process noise variance (how fast the true load drifts);
	// R is the measurement noise variance.
	Q, R float64

	x    float64 // state estimate
	p    float64 // estimate variance
	init bool
}

// NewKalman1D returns a filter with the given noise parameters.
func NewKalman1D(q, r float64) *Kalman1D {
	if q <= 0 || r <= 0 {
		panic("control: Kalman noise variances must be positive")
	}
	return &Kalman1D{Q: q, R: r}
}

// Update feeds one measurement and returns the new state estimate.
func (f *Kalman1D) Update(z float64) float64 {
	if !f.init {
		f.x = z
		f.p = f.R
		f.init = true
		return z
	}
	// Predict: state persists, uncertainty grows.
	f.p += f.Q
	// Update: blend measurement by the Kalman gain.
	k := f.p / (f.p + f.R)
	f.x += k * (z - f.x)
	f.p *= 1 - k
	return f.x
}

// Value returns the current state estimate.
func (f *Kalman1D) Value() float64 { return f.x }
