package main

import (
	"os"
	"testing"
)

// quietly redirects stdout around fn (the drivers print to stdout).
func quietly(t *testing.T, fn func() error) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
}

// testApp is a miniature campaign configuration. Its PlanBatch pool is
// pinned to one worker: the planbatch.workers gauge in metrics.json
// records the pool size, and an unset pool would size itself to the
// host's GOMAXPROCS.
func testApp() *app {
	return &app{chains: 20, runs: 2, quick: true, scale: 10, workers: 1}
}

func TestDriversRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drivers run miniature campaigns")
	}
	a := testApp()
	for _, cmd := range []string{"table1", "fig1", "fig2", "table3", "fig5", "fig6", "sensitivity", "latency"} {
		cmd := cmd
		t.Run(cmd, func(t *testing.T) {
			quietly(t, func() error { return a.run(cmd) })
		})
	}
}

func TestDriverUnknown(t *testing.T) {
	a := testApp()
	if err := a.run("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDriverCSVMode(t *testing.T) {
	a := testApp()
	a.csv = true
	quietly(t, func() error { return a.run("table3") })
}

func TestTable1CellsCached(t *testing.T) {
	a := testApp()
	quietly(t, func() error { return a.table1() })
	first := a.t1cache
	quietly(t, func() error { return a.fig1() })
	if &a.t1cache[0] != &first[0] {
		t.Error("table1 cells recomputed instead of cached")
	}
}
