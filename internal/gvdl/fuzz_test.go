package gvdl

import "testing"

// FuzzParseAll checks two properties of the parser on arbitrary input: it
// never panics, and whatever it accepts prints back into source it accepts
// again unchanged. Every parsed aggregate view statement and every predicate
// expression, rendered with String(), must re-parse to the same String() —
// the view store persists aggregate views as statement text and collections
// as predicate sources, and both are parsed again on load and maintenance.
//
//	go test -run '^$' -fuzz FuzzParseAll ./internal/gvdl
func FuzzParseAll(f *testing.F) {
	for _, src := range []string{
		"create view CA-Long-Calls on Calls\nedges where src.state = 'CA' and dst.state = 'CA'\nand duration > 10 and year = 2019",
		"create view collection call-analysis on Calls\n[D1-Y2010: duration<=1 and year<=2010],\n[D34-Y2010: duration<=34 and year<=2010]",
		"create view NY-Dr-CA-Lawyer on Calls\nnodes group by [\n(profession='Doctor' and city='NY'),\n(profession='Lawyer' and city='LA')]\naggregate count(*)",
		"create view City-Calls-City on Calls\nnodes group by city aggregate num-phones: count(*)\nedges aggregate total-duration: sum(duration)",
		"create view a on g edges where x = 1\ncreate view b on g edges where x = 2",
		"create view v on g edges where a = 1 or b = 2 and not (c = 3)",
		"create view v on g -- a comment\nedges where x = -5",
		"create view v on g nodes group by city, state aggregate lo: min(w), hi: max(w), avg(w) edges aggregate s: sum(w)",
		"create view v on g edges where name = 'it\\'s' or dst.vip != false",
		"apply insert 2->0 [duration = 5, year = 2020] delete 0->1 to Calls",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := ParseAll(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			var preds []Expr
			switch s := s.(type) {
			case *CreateView:
				preds = append(preds, s.Where)
			case *CreateCollection:
				for _, v := range s.Views {
					preds = append(preds, v.Pred)
				}
			case *CreateAggView:
				preds = append(preds, s.Grouping.Predicates...)
				printed := s.String()
				again, err := Parse(printed)
				if err != nil {
					t.Fatalf("re-parsing aggregate view %q: %v", printed, err)
				}
				if again.String() != printed {
					t.Fatalf("aggregate view round trip: %q -> %q", printed, again.String())
				}
			}
			for _, e := range preds {
				printed := e.String()
				again, err := ParsePredicate(printed)
				if err != nil {
					t.Fatalf("re-parsing predicate %q: %v", printed, err)
				}
				if again.String() != printed {
					t.Fatalf("predicate round trip: %q -> %q", printed, again.String())
				}
			}
		}
	})
}
