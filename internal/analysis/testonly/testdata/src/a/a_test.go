package a

import "testing"

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 2 {
		t.Fatal("onlyTested")
	}
}
