package blockstore

import (
	"runtime"
	"sync"
	"testing"

	"dnastore/internal/binding"
)

// bindingConfig returns the small test config with the given binding
// budget and worker count.
func bindingConfig(entries, workers int) Config {
	cfg := testConfig()
	cfg.BindingEntries = entries
	cfg.Workers = workers
	return cfg
}

// buildBindingStore writes the seeded data set into a store built with
// the given binding budget and worker count.
func buildBindingStore(t testing.TB, entries, workers int) (*Store, *Partition) {
	t.Helper()
	cfg := bindingConfig(entries, workers)
	s := newTestStore(t, cfg)
	p, err := s.CreatePartition("alice")
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 12; b++ {
		content := []byte{byte('a' + b), byte('A' + b), byte('0' + b)}
		if err := p.WriteBlock(b, content); err != nil {
			t.Fatal(err)
		}
	}
	return s, p
}

// TestBindingCacheByteIdentity is the tentpole's differential oracle:
// a store with the shared binding cache — default budget or a 64-entry
// budget that evicts constantly — produces the same tube digest and
// the same read bytes as a store with the cache disabled, at workers
// 1, 4 and GOMAXPROCS, across every read path, warm and cold.
func TestBindingCacheByteIdentity(t *testing.T) {
	refStore, refPart := buildBindingStore(t, -1, 1) // cache disabled
	refDigest := refStore.TubeDigest()
	refRange, err := refPart.ReadRange(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	refBlocks, err := readContent(refPart.Read(ReadRequest{Blocks: []int{7, 3, 9, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	refAll, err := readContent(refPart.Read(ReadRequest{All: true}))
	if err != nil {
		t.Fatal(err)
	}

	for _, entries := range []int{0 /* default budget */, 64 /* eviction pressure */} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			s, p := buildBindingStore(t, entries, workers)
			if s.TubeDigest() != refDigest {
				t.Fatalf("entries=%d workers=%d: tube digest differs after writes", entries, workers)
			}
			for pass := 0; pass < 2; pass++ { // cold then warm
				gotRange, err := p.ReadRange(0, 11)
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadRange", refRange, gotRange)
				gotBlocks, err := readContent(p.Read(ReadRequest{Blocks: []int{7, 3, 9, 0}}))
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadBlocks", refBlocks, gotBlocks)
				gotAll, err := readContent(p.Read(ReadRequest{All: true}))
				if err != nil {
					t.Fatal(err)
				}
				equalBlockSets(t, "ReadAll", refAll, gotAll)
			}
			st, ok := s.BindingStats()
			if !ok {
				t.Fatalf("entries=%d workers=%d: cache reported disabled", entries, workers)
			}
			if st.RowHits+st.Hits == 0 {
				t.Errorf("entries=%d workers=%d: warm passes recorded no cache hits", entries, workers)
			}
			if entries == 64 && st.Evictions == 0 {
				t.Errorf("workers=%d: 64-entry budget recorded no evictions under a 12-block workload", workers)
			}
			if s.TubeDigest() != refDigest {
				t.Fatalf("entries=%d workers=%d: reads mutated the tube", entries, workers)
			}
		}
	}
	if _, ok := refStore.BindingStats(); ok {
		t.Error("disabled cache reports stats")
	}
}

// TestBindingProviderShared pins the cross-store sharing contract: a
// caller-supplied provider survives New (it is not displaced by a
// store-private cache), is adopted for stats when it is a
// binding.Cache, and actually accumulates traffic from both stores.
func TestBindingProviderShared(t *testing.T) {
	shared := binding.NewCache(0)
	var stores []*Store
	for i := 0; i < 2; i++ {
		cfg := testConfig()
		cfg.PCR.Provider = shared
		s := newTestStore(t, cfg)
		p, err := s.CreatePartition("alice")
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteBlock(0, []byte("shared provider")); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReadBlock(0); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, s)
	}
	if stores[0].Config().PCR.Provider != binding.Provider(shared) {
		t.Fatal("New displaced the caller-supplied provider")
	}
	st, ok := stores[1].BindingStats()
	if !ok {
		t.Fatal("shared cache not adopted for stats")
	}
	// The two stores share one corpus-free tube each; the second
	// store's read must at least have hit the entries its own reaction
	// filled, and both stores' traffic lands in one counter set.
	if st.Misses == 0 || st.RowHits+st.Hits == 0 {
		t.Errorf("shared cache saw no traffic from both stores: %+v", st)
	}
}

// TestBindingCacheConcurrentReads fans racing range reads, batched
// reads and single-block reads over one store — all sharing one
// binding cache — and checks every result against the serial answers.
// Run with -race (CI does).
func TestBindingCacheConcurrentReads(t *testing.T) {
	s, p := buildBindingStore(t, 0, 2)
	wantRange, err := p.ReadRange(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks, err := readContent(p.Read(ReadRequest{Blocks: []int{1, 5, 11}}))
	if err != nil {
		t.Fatal(err)
	}
	want4, err := p.ReadBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				got, err := p.ReadRange(2, 9)
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadRange", wantRange, got)
			case 1:
				got, err := readContent(p.Read(ReadRequest{Blocks: []int{1, 5, 11}}))
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadBlocks", wantBlocks, got)
			default:
				got, err := p.ReadBlock(4)
				if err != nil {
					t.Error(err)
					return
				}
				equalBlockSets(t, "concurrent ReadBlock", [][]byte{want4}, [][]byte{got})
			}
		}(g)
	}
	wg.Wait()
	if st, ok := s.BindingStats(); !ok || st.RowHits+st.Hits == 0 {
		t.Errorf("shared cache saw no hits across concurrent reads (stats %+v ok=%v)", st, ok)
	}
}
