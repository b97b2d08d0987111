package node

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cachecloud/internal/document"
)

// holderModel is the representation a record's holder list replaced: one
// map from holder to the number of its newest registration. The model test
// keeps one per (table, URL) and applies the sequence rule to it as
// directory.go did before the list was ordered.
type holderModel map[string]uint64

func (m holderModel) list(h string, seq uint64) {
	if cur, ok := m[h]; !ok || seq > cur {
		m[h] = seq
	}
}

func (m holderModel) drop(h string, seq uint64) (stale bool) {
	cur, ok := m[h]
	if ok && seq != 0 && seq < cur {
		return true
	}
	delete(m, h)
	return false
}

// names returns the model's holders in name order, skip and down left out
// (nil when none is left): what a lookup answers.
func (m holderModel) names(skip string, down map[string]bool) []string {
	var out []string
	for h := range m {
		if h != skip && !down[h] {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// TestHolderListMatchesMapModel drives random list / drop / unlist / merge
// / setDown sequences through the directory's entry points, on owned and on
// replica entries, and compares holder set, numbers, the stale-drop verdict
// and every answer's order with the map model after each step.
func TestHolderListMatchesMapModel(t *testing.T) {
	holders := []string{"b", "c", "d", "e"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := newTestDirectory("a")
		owned := urlsOf(t, testLayout(), "a", 3)
		failover := urlsOf(t, testLayout(), "b", 2)
		urls := append(append([]string(nil), owned...), failover...)
		model := map[string]holderModel{}
		for _, u := range urls {
			model[u] = holderModel{}
		}
		down := map[string]bool{}
		var wantStale int64
		pick := func() string { return holders[rng.Intn(len(holders))] }
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(urls))
			u, replica := urls[i], i >= len(owned)
			h, seq := pick(), uint64(rng.Intn(12)) // 0: unnumbered
			switch op := rng.Intn(10); {
			case op < 4: // a registering lookup
				want := model[u].names(h, nil)
				if replica {
					want = model[u].names(h, down)
				}
				if got := d.lookup(0, u, h, seq, nil).Holders; !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: lookup answered %v, model %v", seed, step, got, want)
				}
				model[u].list(h, seq)
			case op < 6:
				d.deregister(h, seq, []string{u})
				if model[u].drop(h, seq) {
					wantStale++
				}
			case op < 7 && !replica: // a fan-out's verdict on one listing
				d.unlist(u, []listing{{h, seq}})
				if cur, ok := model[u][h]; ok && cur == seq {
					delete(model[u], h)
				}
			case op < 8: // a wire record: duplicates, any order
				wr := WireRecord{URL: u, Holders: []string{pick(), pick(), pick()}}
				if replica {
					// A push writes the entry over.
					model[u] = holderModel{}
					if err := d.acceptReplicas("b", false, []WireRecord{wr}); err != nil {
						t.Fatal(err)
					}
				} else if err := d.importRecords([]WireRecord{wr}); err != nil {
					t.Fatal(err)
				}
				for _, name := range wr.Holders {
					model[u].list(name, 0)
				}
			case op < 9:
				down = map[string]bool{}
				var names []string
				if rng.Intn(2) == 0 {
					names = []string{pick()}
					down[names[0]] = true
				}
				d.setDown(names)
				for _, m := range model {
					for name := range down {
						delete(m, name)
					}
				}
			default: // an update's fan-out list
				if replica {
					continue
				}
				_, fan := d.update(0, document.Document{URL: u, Version: 1})
				var want []listing
				for _, name := range model[u].names("", nil) {
					want = append(want, listing{name, model[u][name]})
				}
				if len(fan) != len(want) || (len(want) > 0 && !reflect.DeepEqual(fan, want)) {
					t.Fatalf("seed %d step %d: update fans to %v, model %v", seed, step, fan, want)
				}
			}
			for j, u := range urls {
				got := holdersOf(d, j >= len(owned), u)
				if len(got) != len(model[u]) || (len(got) > 0 && !reflect.DeepEqual(got, map[string]uint64(model[u]))) {
					t.Fatalf("seed %d step %d: %s lists %v, model %v", seed, step, u, got, model[u])
				}
			}
			if got := d.staleDrops.Value(); got != wantStale {
				t.Fatalf("seed %d step %d: %d stale drops, model %d", seed, step, got, wantStale)
			}
			if got, walk := heldOf(d), heldByWalk(d); got != walk {
				t.Fatalf("seed %d step %d: %d owned records at stake, a walk counts %d", seed, step, got, walk)
			}
		}
		for _, replicas := range []bool{false, true} {
			for _, wr := range d.snapshot(replicas) {
				if want := model[wr.URL].names("", nil); !reflect.DeepEqual(wr.Holders, want) {
					t.Fatalf("seed %d: snapshot of %s = %v, model %v", seed, wr.URL, wr.Holders, want)
				}
			}
		}
	}
}

// TestLookupHoldersInNameOrder pins that every walk of a record — the
// lookup answer, the wire form, the update fan-out — is in name order
// whatever order the holders registered in: peerRetrieve's peer choice,
// the simnet event logs and TestDirectoryMatchesCore rely on it, and
// nothing sorts any more.
func TestLookupHoldersInNameOrder(t *testing.T) {
	d := newTestDirectory("a")
	u := urlsOf(t, testLayout(), "a", 1)[0]
	for i, h := range []string{"e", "c", "d", "b", "c"} {
		d.lookup(0, u, h, uint64(i+1), nil)
	}
	if got, want := d.lookup(0, u, "", 0, nil).Holders, []string{"b", "c", "d", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupResponse.Holders = %v, want %v", got, want)
	}
	if got, want := d.lookup(0, u, "d", 9, nil).Holders, []string{"b", "c", "e"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("answer to d = %v, want %v", got, want)
	}
	if wr, ok := findWire(d.snapshot(false), u); !ok || !reflect.DeepEqual(wr.Holders, []string{"b", "c", "d", "e"}) {
		t.Fatalf("WireRecord.Holders = %v", wr.Holders)
	}
	_, fan := d.update(0, document.Document{URL: u, Version: 2})
	if want := []listing{{"b", 4}, {"c", 5}, {"d", 9}, {"e", 1}}; !reflect.DeepEqual(fan, want) {
		t.Fatalf("update fans out to %v, want %v", fan, want)
	}
	// A hand-off that names holders twice and out of order lists each once,
	// in order.
	v := urlsOf(t, testLayout(), "a", 2)[1]
	if err := d.importRecords([]WireRecord{{URL: v, Holders: []string{"e", "b", "e", "c", "b"}, Version: 1}}); err != nil {
		t.Fatal(err)
	}
	if wr, _ := findWire(d.snapshot(false), v); !reflect.DeepEqual(wr.Holders, []string{"b", "c", "e"}) {
		t.Fatalf("imported holders = %v, want [b c e]", wr.Holders)
	}
}
