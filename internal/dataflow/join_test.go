package dataflow

import (
	"math/rand"
	"testing"
)

// joinVersion is one version of FuzzJoinMatchesOracle's inputs.
type joinVersion struct {
	v           uint32
	left, right []Update[KV[int, int]]
}

// FuzzJoinMatchesOracle holds JoinMap and JoinMapTotal to the per-key
// product of their accumulated inputs. Versions bring updates to both sides,
// most often at the same few keys in the same version, with counts that
// cancel, return and go below zero, and empty versions and skipped version
// numbers among them. The versions run once, then again from version 0 after
// ResetState, and the scope compacts after a random choice of versions in
// each run. After every Drain each join's Result must hold f(k, a, b) with
// multiplicity count(k, a)·count(k, b) summed over the accumulated inputs,
// and its Diff must be that minus the last version's.
func FuzzJoinMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(12), false)
	f.Add(int64(2), uint8(15), true)
	f.Add(int64(3), uint8(9), true)
	f.Add(int64(4), uint8(14), false)
	f.Fuzz(func(t *testing.T, seed int64, versions uint8, multi bool) {
		r := rand.New(rand.NewSource(seed))
		workers := 1
		if multi {
			workers = 3
		}
		s := NewScope(workers)
		lin, left := NewInput[KV[int, int]](s)
		rin, right := NewInput[KV[int, int]](s)
		pair := func(k, a, b int) KV[int, int] { return KV[int, int]{k, 10*a + b} }
		joins := []struct {
			name string
			c    *Capture[KV[int, int]]
		}{
			{"JoinMap", NewCapture(JoinMap(left, right, pair))},
			{"JoinMapTotal", NewCapture(JoinMapTotal(left, right, pair))},
		}

		updates := func() []Update[KV[int, int]] {
			var ups []Update[KV[int, int]]
			for range r.Intn(7) {
				ups = append(ups, Update[KV[int, int]]{KV[int, int]{r.Intn(4), r.Intn(3)}, Diff(r.Intn(5) - 2)})
			}
			return ups
		}
		var seq []joinVersion
		v := uint32(0)
		for range 1 + int(versions)%16 {
			switch r.Intn(5) {
			case 0: // an empty version
				seq = append(seq, joinVersion{v: v})
			case 1: // a skipped version number
				v++
				fallthrough
			default:
				seq = append(seq, joinVersion{v, updates(), updates()})
			}
			v++
		}

		for run := range 2 {
			if run == 1 {
				s.ResetState()
			}
			lacc, racc, was := map[KV[int, int]]Diff{}, map[KV[int, int]]Diff{}, map[KV[int, int]]Diff{}
			for i, ver := range seq {
				lin.SendAt(ver.v, ver.left)
				rin.SendAt(ver.v, ver.right)
				s.Drain()
				if r.Intn(3) > 0 {
					s.Compact(ver.v)
				}
				for _, u := range ver.left {
					add(lacc, u.Rec, u.D)
				}
				for _, u := range ver.right {
					add(racc, u.Rec, u.D)
				}
				want := map[KV[int, int]]Diff{}
				for a, da := range lacc {
					for b, db := range racc {
						if a.K == b.K {
							add(want, pair(a.K, a.V, b.V), da*db)
						}
					}
				}
				diff := map[KV[int, int]]Diff{}
				addInto(diff, want)
				for rec, d := range was {
					add(diff, rec, -d)
				}
				for _, j := range joins {
					if got := j.c.Result(); !equalDiffMaps(got, want) {
						t.Fatalf("run %d step %d (v%d): %s result %v, want %v", run, i, ver.v, j.name, got, want)
					}
					if got := j.c.Diff(); !equalDiffMaps(got, diff) {
						t.Fatalf("run %d step %d (v%d): %s diff %v, want %v", run, i, ver.v, j.name, got, diff)
					}
				}
				was = want
			}
		}
	})
}
