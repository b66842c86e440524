package b

import "a"

// Calls reaches into a.
func Calls() int { return a.Used() + a.Getter(&a.T{})() + a.Table() + a.IntBox(&a.Box[int]{}) }

// Exported is called by nothing at all.
func Exported() {} // want `b\.Exported is reached only by tests`
