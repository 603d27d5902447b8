package main

import "testing"

// TestRunFlagHandling pins the command surface: the cheap flag paths
// exit with the documented statuses.
func TestRunFlagHandling(t *testing.T) {
	if got := run([]string{"-sarif"}); got != 2 {
		t.Errorf("run(-sarif) = %d, want 2 (no such flag)", got)
	}
	if got := run([]string{"-list"}); got != 0 {
		t.Errorf("run(-list) = %d, want 0", got)
	}
	if got := run([]string{"-rules", "no-such-rule"}); got != 2 {
		t.Errorf("run(-rules no-such-rule) = %d, want 2", got)
	}
	if got := run([]string{"-rules", " , "}); got != 2 {
		t.Errorf("run(-rules with no names) = %d, want 2", got)
	}
}
