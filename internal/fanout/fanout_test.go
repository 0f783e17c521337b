package fanout

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/testkit/suite"
)

func TestPoolSize(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{10, 3, 3}, {2, 8, 2}, {0, 4, 0}, {5, 1, 1},
		{1 << 20, 0, runtime.GOMAXPROCS(0)}, {1 << 20, -1, runtime.GOMAXPROCS(0)},
	} {
		if got := PoolSize(c.n, c.workers); got != c.want {
			t.Errorf("PoolSize(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestDoRunsEveryIndexOnce holds the contract every caller leans on:
// each index exactly once, worker indices inside the pool, nothing left
// running on return — at pools smaller than, equal to and larger than n.
func TestDoRunsEveryIndexOnce(t *testing.T) {
	suite.VerifyNoLeaks(t)
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{1, 2, 8, 200} {
			hits := make([]atomic.Int32, n)
			pool := PoolSize(n, workers)
			Do(n, workers, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("n=%d workers=%d: worker index %d outside [0, %d)", n, workers, w, pool)
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestDoInlineAtOneWorker: a pool of one is the caller's goroutine, in
// index order (the unsynchronized append below is the check under
// -race).
func TestDoInlineAtOneWorker(t *testing.T) {
	var order []int
	Do(5, 1, func(w, i int) { order = append(order, w*10+i) })
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("one worker visited %v, want 0..4 in order on worker 0", order)
	}
}

// TestDoPanicReachesCaller: a body's panic surfaces on the caller's
// goroutine, where it can be recovered with its value, at any pool size
// — and only once no body is still running.
func TestDoPanicReachesCaller(t *testing.T) {
	suite.VerifyNoLeaks(t)
	boom := errors.New("fanout test: index 5")
	for _, workers := range []int{1, 2, 4} {
		var running atomic.Int32
		got := func() (v any) {
			defer func() { v = recover() }()
			Do(64, workers, func(_, i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 5 {
					panic(boom)
				}
			})
			return nil
		}()
		if got != boom {
			t.Errorf("workers=%d: caller recovered %v, want the body's panic value", workers, got)
		}
		if r := running.Load(); r != 0 {
			t.Errorf("workers=%d: %d bodies still running after Do panicked", workers, r)
		}
	}
}

// TestOneFanOutCensus keeps "run n independent items on a bounded set
// of goroutines" in this package: outside it, the long-lived pools that
// own failure handling (batch.ShardRunner, the mddserve workers and the
// server main), fdtd's strip split, tests and the frozen benchmark, no
// product file contains a go statement. A new parallel loop calls
// fanout.Do; a new long-lived goroutine is argued for in DESIGN.md
// first and added to the list here.
func TestOneFanOutCensus(t *testing.T) {
	allowed := func(rel string) bool {
		return rel == "internal/batch/shard.go" ||
			strings.HasPrefix(rel, "internal/fanout/") ||
			strings.HasPrefix(rel, "internal/mddserve/") ||
			strings.HasPrefix(rel, "cmd/mddserve/") ||
			strings.HasPrefix(rel, "internal/fdtd/")
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "bench" || rel == "bin" || d.Name() == "testdata" ||
				strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || allowed(rel) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement outside the fan-out leaf; call fanout.Do", fset.Position(g.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("census walked %d product files from %s; the tree has more — is the root right?", files, root)
	}
}
