// Package thermal simulates the temperature-control half of the paper's
// infrastructure: silicone-rubber heater pads attached to the DIMM,
// driven by a PID temperature controller (the paper uses a Maxwell FT20X;
// it reports ±0.2 °C stability over 24 hours).
//
// The plant is a first-order thermal model: the DIMM's temperature
// relaxes toward ambient and rises with heater power. The Controller
// closes the loop and reports the achieved temperature, which the
// characterization harness feeds into the device model's Arrhenius
// factor.
package thermal

import (
	"errors"
	"fmt"
	"time"
)

// Plant is a first-order thermal model of a DIMM with heater pads.
type Plant struct {
	// AmbientC is the ambient temperature.
	AmbientC float64
	// ThermalResistance converts heater power to steady-state
	// temperature rise (C per watt).
	ThermalResistance float64
	// TimeConstant is the first-order lag.
	TimeConstant time.Duration
	// MaxPowerW bounds the heater.
	MaxPowerW float64
	// NoiseC is a deterministic pseudo-random disturbance amplitude
	// modeling airflow variation.
	NoiseC float64

	tempC float64
	step  uint64
}

// NewPlant builds a plant initialized to ambient temperature.
func NewPlant(ambientC float64) *Plant {
	return &Plant{
		AmbientC:          ambientC,
		ThermalResistance: 2.5, // C/W, typical for a DIMM heater pad
		TimeConstant:      20 * time.Second,
		MaxPowerW:         40,
		NoiseC:            0.01,
		tempC:             ambientC,
	}
}

// Temperature returns the current DIMM temperature.
func (p *Plant) Temperature() float64 { return p.tempC }

// Step advances the plant by dt with the given heater power applied.
func (p *Plant) Step(powerW float64, dt time.Duration) float64 {
	if powerW < 0 {
		powerW = 0
	}
	if powerW > p.MaxPowerW {
		powerW = p.MaxPowerW
	}
	target := p.AmbientC + powerW*p.ThermalResistance
	alpha := float64(dt) / float64(p.TimeConstant)
	if alpha > 1 {
		alpha = 1
	}
	p.tempC += (target - p.tempC) * alpha
	// Small deterministic disturbance (hash of the step index).
	p.step++
	h := p.step * 0x9e3779b97f4a7c15
	h ^= h >> 33
	p.tempC += p.NoiseC * (float64(h%2000)/1000 - 1)
	return p.tempC
}

// PID is a discrete PID controller with output clamping and integral
// anti-windup.
type PID struct {
	Kp, Ki, Kd float64
	OutMin     float64
	OutMax     float64

	integral float64
	prevErr  float64
	havePrev bool
}

// Update computes the next controller output for a setpoint/measurement
// pair over timestep dt.
func (c *PID) Update(setpoint, measured float64, dt time.Duration) float64 {
	e := setpoint - measured
	dts := dt.Seconds()
	if dts <= 0 {
		return clamp(c.Kp*e, c.OutMin, c.OutMax)
	}
	deriv := 0.0
	if c.havePrev {
		deriv = (e - c.prevErr) / dts
	}
	c.prevErr = e
	c.havePrev = true

	out := c.Kp*e + c.Ki*c.integral + c.Kd*deriv
	clamped := clamp(out, c.OutMin, c.OutMax)
	// Anti-windup by conditional integration: freeze the integral while
	// the output is saturated in the direction the error pushes.
	saturatedSameDir := clamped != out && e*(out-clamped) > 0
	if !saturatedSameDir {
		c.integral += e * dts
	}
	return clamped
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Controller couples a PID to a plant and regulates to a setpoint, like
// the paper's heater-pad temperature controller.
type Controller struct {
	plant    *Plant
	pid      PID
	setpoint float64
	dt       time.Duration
}

// ControllerConfig configures a temperature controller.
type ControllerConfig struct {
	Plant    *Plant
	Setpoint float64
	// Tick is the control period (default 100 ms).
	Tick time.Duration
}

// ErrNilPlant reports a missing plant.
var ErrNilPlant = errors.New("thermal: controller needs a plant")

// NewController builds a controller with gains tuned for the default
// plant (slightly overdamped, no overshoot past ±0.2 C).
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Plant == nil {
		return nil, ErrNilPlant
	}
	if cfg.Tick == 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.Setpoint < cfg.Plant.AmbientC {
		return nil, fmt.Errorf("thermal: setpoint %.1fC below ambient %.1fC (heater-only plant)",
			cfg.Setpoint, cfg.Plant.AmbientC)
	}
	return &Controller{
		plant: cfg.Plant,
		pid: PID{
			Kp: 4.0, Ki: 0.08, Kd: 2.0,
			OutMin: 0, OutMax: cfg.Plant.MaxPowerW,
		},
		setpoint: cfg.Setpoint,
		dt:       cfg.Tick,
	}, nil
}

// Run advances the closed loop for a duration and returns the final
// temperature.
func (c *Controller) Run(d time.Duration) float64 {
	steps := int(d / c.dt)
	for i := 0; i < steps; i++ {
		power := c.pid.Update(c.setpoint, c.plant.Temperature(), c.dt)
		c.plant.Step(power, c.dt)
	}
	return c.plant.Temperature()
}
