package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"hierknem/internal/lint"
)

// writeTree scaffolds a throwaway Go module for driver tests: hermetic (no
// dependency on the hierknem tree), so cache behavior is exercised without
// coupling the test to real-package contents.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// The fixture module borrows the simulator's module path so its stub des
// package matches the hierflow base facts (Engine.Now reads virtual time,
// Engine.After consumes a time argument); vtmono then finds the app
// package's bug only through base's cross-package TimeSinkParams fact.
const cacheGoMod = "module hierknem\n\ngo 1.24\n"

const cacheDesSrc = `// Package des is a driver-test stub of the engine API.
package des

// Engine is the stub engine.
type Engine struct{ now float64 }

// Now returns virtual now.
func (e *Engine) Now() float64 { return e.now }

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) {}
`

// cacheBaseSrc exposes a helper whose TimeSinkParams fact says "param 1
// is a schedule time" — the cross-package fact the dependent package's
// analysis hinges on.
const cacheBaseSrc = `// Package base is a driver-test fixture.
package base

import "hierknem/internal/des"

// Schedule arms a no-op timer d seconds from now.
func Schedule(e *des.Engine, d float64) {
	e.After(d, func() {})
}
`

// cacheBaseNoSink is the same package with a helper that ignores its
// delay: the fact set differs (no time sink), so swapping between the two
// changes the base package's fact hash and must invalidate dependents.
const cacheBaseNoSink = `// Package base is a driver-test fixture.
package base

import "hierknem/internal/des"

// Schedule ignores its delay in this variant.
func Schedule(e *des.Engine, d float64) {
	_ = e
	_ = d
}
`

const cacheAppSrc = `// Package app is a driver-test fixture dependent.
package app

import (
	"hierknem/internal/base"
	"hierknem/internal/des"
)

// Late schedules relative to a deadline by subtracting now.
func Late(e *des.Engine, deadline float64) {
	base.Schedule(e, deadline-e.Now())
}
`

func cacheTree(t *testing.T, baseSrc string) string {
	return writeTree(t, map[string]string{
		"go.mod":                cacheGoMod,
		"internal/des/des.go":   cacheDesSrc,
		"internal/base/base.go": baseSrc,
		"internal/app/app.go":   cacheAppSrc,
	})
}

func analyzeTree(t *testing.T, dir, cacheDir string, workers int) ([]lint.Diagnostic, *lint.Stats) {
	t.Helper()
	diags, stats, err := lint.Analyze(lint.Options{
		Dir:      dir,
		CacheDir: cacheDir,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return diags, stats
}

func hitByPkg(stats *lint.Stats) map[string]bool {
	m := map[string]bool{}
	for _, u := range stats.PerUnit {
		m[u.Pkg] = u.CacheHit
	}
	return m
}

// TestDriverCacheIdenticalTree pins the warm-cache contract: a second run
// over an untouched tree re-analyzes zero packages and reproduces the
// diagnostics exactly.
func TestDriverCacheIdenticalTree(t *testing.T) {
	dir := cacheTree(t, cacheBaseSrc)
	cache := filepath.Join(dir, ".cache")

	cold, coldStats := analyzeTree(t, dir, cache, 0)
	if coldStats.CacheHits != 0 || coldStats.Analyzed != coldStats.Units {
		t.Fatalf("cold run: %d hits, %d analyzed of %d units — want all analyzed", coldStats.CacheHits, coldStats.Analyzed, coldStats.Units)
	}
	if len(cold) == 0 {
		t.Fatal("fixture tree should produce vtmono findings (cross-package fact check)")
	}

	warm, warmStats := analyzeTree(t, dir, cache, 0)
	if warmStats.Analyzed != 0 || warmStats.CacheHits != warmStats.Units {
		t.Fatalf("warm run: %d analyzed, %d hits of %d units — want zero re-analysis", warmStats.Analyzed, warmStats.CacheHits, warmStats.Units)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm diagnostics differ: %d vs %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i].String() != cold[i].String() {
			t.Errorf("diag %d: warm %q != cold %q", i, warm[i], cold[i])
		}
	}
}

// TestDriverCacheInvalidation pins the two invalidation granularities:
// a comment-only edit re-analyzes just the touched package (its facts are
// unchanged, so dependents early-cut), while a fact-changing edit (the
// helper stops scheduling) re-analyzes the dependents too.
func TestDriverCacheInvalidation(t *testing.T) {
	dir := cacheTree(t, cacheBaseSrc)
	cache := filepath.Join(dir, ".cache")
	basePath := filepath.Join(dir, "internal/base/base.go")

	diags, _ := analyzeTree(t, dir, cache, 0)
	if len(diags) == 0 {
		t.Fatal("fixture should produce vtmono findings")
	}

	// Comment-only edit: base misses, app early-cuts on the fact hash.
	if err := os.WriteFile(basePath, []byte(cacheBaseSrc+"\n// trailing comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := analyzeTree(t, dir, cache, 0)
	hits := hitByPkg(stats)
	if hits["hierknem/internal/base"] {
		t.Error("base should re-analyze after a source edit")
	}
	if !hits["hierknem/internal/app"] {
		t.Error("app should cache-hit: the edit did not change base's facts (early cutoff)")
	}

	// Fact-changing edit: the time sink disappears, base's fact hash
	// changes, app must re-analyze — and its findings disappear with it.
	if err := os.WriteFile(basePath, []byte(cacheBaseNoSink), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, stats = analyzeTree(t, dir, cache, 0)
	hits = hitByPkg(stats)
	if hits["hierknem/internal/base"] || hits["hierknem/internal/app"] {
		t.Errorf("both packages should re-analyze after a fact change, got hits %v", hits)
	}
	if len(diags) != 0 {
		t.Errorf("sink-free tree should be clean, got %v", diags)
	}
}

// TestDriverParallelMatchesSerial pins determinism: the merged output of a
// parallel run is byte-identical to a serial run, mirroring the
// isolation_test.go pattern of comparing runs under different interleaving.
func TestDriverParallelMatchesSerial(t *testing.T) {
	dir := cacheTree(t, cacheBaseSrc)

	serial, _ := analyzeTree(t, dir, "", 1)
	parallel, _ := analyzeTree(t, dir, "", 8)

	if len(serial) == 0 {
		t.Fatal("fixture tree should produce findings")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("parallel found %d diagnostics, serial %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i].String() != parallel[i].String() {
			t.Errorf("diag %d: parallel %q != serial %q", i, parallel[i], serial[i])
		}
	}
}
