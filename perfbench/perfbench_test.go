package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke builds the benchmark and cmd/node, runs the smoke mode (every
// workload for about a second, untraced and traced, each in its own
// process) and so checks that every metric BENCHMARK.json names is printed
// with its unit, that every output matched its reference and that the
// books balanced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	bench, node := filepath.Join(dir, "perfbench"), filepath.Join(dir, "dfnode")
	for _, args := range [][]string{{"build", "-o", bench, "."}, {"build", "-o", node, "repro/cmd/node"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	cmd := exec.Command(bench, "-smoke", "-node", node, "-manifest", "BENCHMARK.json")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	t.Logf("%s", out)
	if err != nil {
		t.Fatalf("smoke: %v", err)
	}
}
