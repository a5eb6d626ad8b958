package thermal

import (
	"math"
	"testing"
	"time"
)

func TestPlantSteadyState(t *testing.T) {
	p := NewPlant(25)
	p.NoiseC = 0 // deterministic for this test
	for i := 0; i < 10000; i++ {
		p.Step(10, 100*time.Millisecond)
	}
	want := 25 + 10*p.ThermalResistance
	if math.Abs(p.Temperature()-want) > 0.5 {
		t.Errorf("steady state %.2fC, want %.2fC", p.Temperature(), want)
	}
}

func TestPlantPowerClamping(t *testing.T) {
	p := NewPlant(25)
	p.NoiseC = 0
	for i := 0; i < 10000; i++ {
		p.Step(1e6, 100*time.Millisecond) // absurd power request
	}
	maxTemp := 25 + p.MaxPowerW*p.ThermalResistance
	if p.Temperature() > maxTemp+0.5 {
		t.Errorf("temperature %.1fC exceeds heater limit %.1fC", p.Temperature(), maxTemp)
	}
	p2 := NewPlant(25)
	p2.NoiseC = 0
	p2.Step(-10, time.Second)
	if p2.Temperature() < 24 {
		t.Error("negative power cooled the plant")
	}
}

func TestControllerReachesSetpoint(t *testing.T) {
	plant := NewPlant(25)
	c, err := NewController(ControllerConfig{Plant: plant, Setpoint: 50})
	if err != nil {
		t.Fatal(err)
	}
	final := c.Run(10 * time.Minute)
	if math.Abs(final-50) > 0.3 {
		t.Errorf("after 10 minutes: %.2fC, want 50 +- 0.3", final)
	}
}

// TestControllerStability reproduces the paper's infrastructure claim:
// the temperature controller holds the target within +-0.2C once
// settled (footnote 1 of the paper).
func TestControllerStability(t *testing.T) {
	plant := NewPlant(25)
	c, err := NewController(ControllerConfig{Plant: plant, Setpoint: 50})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(20 * time.Minute) // settle
	// Hold for 30 minutes, one 100 ms control tick at a time.
	dev := 0.0
	for i := 0; i < int(30*time.Minute/(100*time.Millisecond)); i++ {
		c.Run(100 * time.Millisecond)
		dev = math.Max(dev, math.Abs(plant.Temperature()-50))
	}
	if dev > 0.2 {
		t.Errorf("steady-state deviation %.3fC, paper reports +-0.2C", dev)
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(ControllerConfig{Setpoint: 50}); err == nil {
		t.Error("accepted nil plant")
	}
	if _, err := NewController(ControllerConfig{Plant: NewPlant(25), Setpoint: 20}); err == nil {
		t.Error("accepted setpoint below ambient for a heater-only plant")
	}
}

func TestPIDAntiWindup(t *testing.T) {
	pid := PID{Kp: 1, Ki: 10, Kd: 0, OutMin: 0, OutMax: 5}
	// Drive a huge persistent error: the output must clamp but the
	// integral must not run away, so recovery is quick.
	for i := 0; i < 1000; i++ {
		out := pid.Update(100, 0, 100*time.Millisecond)
		if out < 0 || out > 5 {
			t.Fatalf("output %g outside clamp", out)
		}
	}
	// Error removed: output must fall off the clamp promptly.
	for i := 0; i < 5; i++ {
		pid.Update(100, 100, 100*time.Millisecond)
	}
	out := pid.Update(100, 100, 100*time.Millisecond)
	if out > 5*0.999 {
		t.Errorf("output stuck at clamp after error removal: %g (integral windup)", out)
	}
}

func TestPIDZeroDt(t *testing.T) {
	pid := PID{Kp: 2, OutMin: -10, OutMax: 10}
	if out := pid.Update(5, 0, 0); out != 10 {
		t.Errorf("zero-dt output = %g, want clamped proportional 10", out)
	}
}
