package a

import (
	"encoding/json"
	"fmt"
)

// Used is called from package b.
func Used() int { return helper() }

func helper() int { return 1 }

func onlyTested() int { return 2 } // want `a\.onlyTested is reached only by tests, or by nothing: delete it, move it into a _test\.go file of its package, or keep it with //nolint:testonly // <reason> on this line`

func recursive(n int) int { // want `a\.recursive is reached only by tests`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// T is a type whose methods show which uses count.
type T struct{ n int }

func (t *T) Unused() int { return t.n } // want `a\.T\.Unused is reached only by tests`

func (t T) String() string { return fmt.Sprint(t.n) }

func (t T) MarshalJSON() ([]byte, error) { return json.Marshal(t.n) }

func (t *T) asValue() int { return t.n }

// Getter hands out a method value.
func Getter(t *T) func() int { return t.asValue }

func callback() {}

// Register passes a function as a value.
func Register(f func()) { f() }

// Wire registers callback.
func Wire() { Register(callback) }

func initializer() int { return 3 }

var table = map[string]func() int{"init": initializer}

// Table reads table.
func Table() int { return table["init"]() }

// Box is generic.
type Box[E any] struct{ v E }

func (b *Box[E]) Get() E { return b.v }

// IntBox reads a Box through an instantiation.
func IntBox(b *Box[int]) int { return b.Get() }

func kept() int { return 4 } //nolint:testonly // a reason, as every kept function gives
