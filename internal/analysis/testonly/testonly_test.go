package testonly_test

import (
	"testing"

	"calliope/internal/analysis/analysistest"
	"calliope/internal/analysis/testonly"
)

func TestTestonly(t *testing.T) {
	analysistest.Run(t, "testdata", testonly.Analyzer, "a", "b", "cmd/tool", "internal/sim")
}
