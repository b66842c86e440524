// Package sim is on KeptPkgs: nothing here is reported.
package sim

// Run is called by nothing.
func Run() {}
