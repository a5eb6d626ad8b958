package registry

import "time"

// SetClock replaces the retention clock, time.Now by default, so tests
// step retention without sleeping.
func (r *Registry) SetClock(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.now = now
}
