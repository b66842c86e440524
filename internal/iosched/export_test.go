package iosched

// Quit exposes the shutdown signal, closed once Close has told the loop
// to stop: a test that must act between that and the loop noticing
// waits on it instead of sleeping.
func (s *Scheduler) Quit() <-chan struct{} { return s.quit }
