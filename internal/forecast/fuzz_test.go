package forecast

import (
	"fmt"
	"testing"
)

// FuzzClusterAssign drives a bounded clusterer with arbitrary
// fingerprint/feature streams and checks the structural invariants: every
// template is assigned, the K bound is hard, every assignment is stable on
// re-registration, and Lookup, Leader and MemberCount agree: every name
// looks up to a live cluster, every leader to its own cluster, and member
// counts sum to Assigned().
func FuzzClusterAssign(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(16), []byte{255, 1, 128, 7, 3, 3, 3})
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		maxK := int(k%16) + 1
		c := NewClusterer(maxK, 0.25)
		ids := make(map[string]int)
		for i, b := range data {
			if i >= 64 {
				break
			}
			name := fmt.Sprintf("t%03d", i)
			fp := uint64(b%8) + 1 // small space → frequent fingerprint collisions
			feat := []float64{float64(b), float64(b) * 3, float64(i % 5)}
			id := c.Assign(name, fp, feat)
			if id < 0 || id >= maxK {
				t.Fatalf("assignment %d outside [0,%d)", id, maxK)
			}
			if id >= c.Len() {
				t.Fatalf("assignment %d beyond live clusters %d", id, c.Len())
			}
			if again := c.Assign(name, fp+1, nil); again != id {
				t.Fatalf("re-assignment moved %q: %d -> %d", name, id, again)
			}
			ids[name] = id
		}
		if c.Len() > maxK {
			t.Fatalf("%d clusters exceed bound %d", c.Len(), maxK)
		}
		if c.Assigned() != len(ids) {
			t.Fatalf("Assigned() = %d, want %d", c.Assigned(), len(ids))
		}
		names := make([]string, 0, len(ids))
		for name, id := range ids {
			if got, ok := c.Lookup(name); !ok || got != id {
				t.Fatalf("%q assigned to %d but looks up as (%d,%v)", name, id, got, ok)
			}
			names = append(names, name)
		}
		checkClusterInvariants(t, c, names)
	})
}
