package main

import (
	"strings"
	"testing"
)

// TestRunExperiments runs the fast paper studies end to end through the
// command's dispatcher and checks that an unknown id is refused by name.
func TestRunExperiments(t *testing.T) {
	if err := runExperiments("fig3,density,related,alloc", 5000, 0, 1, 1, 100); err != nil {
		t.Fatalf("fast studies: %v", err)
	}
	err := runExperiments("fig3,fig99", 5000, 0, 1, 1, 100)
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Errorf("unknown id: want an error naming \"fig99\", got %v", err)
	}
}
