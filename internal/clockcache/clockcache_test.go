package clockcache

import (
	"fmt"
	"sync"
	"testing"
)

// TestClockKeepsHotEntries: a flood of one-shot keys past capacity must
// recycle cold slots and spare the hot working set — the CLOCK
// second-chance property a drop-everything policy lacks.
func TestClockKeepsHotEntries(t *testing.T) {
	c := New[string, int](8)

	// Establish a hot working set of 4 and touch it so every entry holds
	// a reference bit.
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("hot-%d", i), "e1", i)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := c.Get(fmt.Sprintf("hot-%d", i)); !ok {
			t.Fatalf("hot-%d missing before overflow", i)
		}
	}

	// Stampede: 40 one-shot keys, 5x capacity, never read back — while the
	// hot set keeps being read, as a flare-alert crowd keeps re-reading the
	// same canned views. Each read renews the reference bit, so the hand
	// finds the hot slots warm and recycles the cold ones instead.
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("cold-%d", i), "e1", -1)
		c.Get(fmt.Sprintf("hot-%d", i%4))
	}

	for i := 0; i < 4; i++ {
		if v, _, ok := c.Get(fmt.Sprintf("hot-%d", i)); !ok || v != i {
			t.Fatalf("hot-%d evicted by a one-shot stampede", i)
		}
	}
	st := c.Stats()
	if st.Entries > 8 {
		t.Fatalf("cache grew to %d entries past cap 8", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("overflow evicted nothing")
	}
}

// TestClockOverwriteInPlace: re-putting an existing key (fresh epoch)
// must not consume a new slot or evict anyone.
func TestClockOverwriteInPlace(t *testing.T) {
	c := New[string, int](4)
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k-%d", i), "e1", i)
	}
	for e := 2; e < 10; e++ {
		c.Put("k-0", fmt.Sprintf("e%d", e), e)
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("in-place overwrites evicted %d entries", st.Evictions)
	}
	if v, epoch, ok := c.Get("k-0"); !ok || epoch != "e9" || v != 9 {
		t.Fatalf("Get(k-0) = %d, %q, %v; want the latest epoch e9", v, epoch, ok)
	}
	for i := 1; i < 4; i++ {
		if _, epoch, ok := c.Get(fmt.Sprintf("k-%d", i)); !ok || epoch != "e1" {
			t.Fatalf("k-%d lost to an overwrite of a different key", i)
		}
	}
}

// TestConcurrentUse: readers and writers from several goroutines, past
// capacity, keep the bound and never serve a value under another key.
func TestConcurrentUse(t *testing.T) {
	c := New[int, string](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k-%d", (g*7+i)%40)
				c.Put(key, i, key)
				if v, _, ok := c.Get(key); ok && v != key {
					t.Errorf("Get(%s) = %s", key, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 16 || st.Evictions == 0 {
		t.Fatalf("stats after overflow = %+v, want <= 16 entries and some evictions", st)
	}
}
