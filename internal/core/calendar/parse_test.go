package calendar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"calsys/internal/chronology"
	"calsys/internal/core/interval"
)

func TestParseBasics(t *testing.T) {
	cases := []string{
		"{}",
		"{(1,1)}",
		"{(1,31),(32,59),(60,90)}",
		"{(-4,3),(4,10)}",
		"{{(4,10),(11,17)},{(32,38)}}",
		"{{{(1,1)},{(2,2)}},{{(3,3)}}}",
		// What String prints for a descending selection, a flattened < grouping
		// and a diced order-3 result: leaves out of order, repeated, or none.
		"{(3,3),(1,1)}",
		"{(1,2),(1,2),(4,5),(1,2)}",
		"{{(9,9),(2,4)},{}}",
		"{{{{(5,5),(1,2)},{}}},{{{}}}}",
	}
	for _, src := range cases {
		c, err := Parse(chronology.Day, src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if c.String() != src {
			t.Errorf("Parse(%q).String() = %q", src, c.String())
		}
	}
	// Whitespace tolerated.
	c, err := Parse(chronology.Day, " { (1, 2) , (3, 4) } ")
	if err != nil || c.String() != "{(1,2),(3,4)}" {
		t.Errorf("whitespace parse = %v, %v", c, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(1,2)",
		"{(1,2)",
		"{(1,2)} trailing",
		"{(2,1)}",     // reversed
		"{(0,3)}",     // zero endpoint
		"{(1,2),(x)}", // junk
		"{(1)}",
		"{{(1,2)},(3,4)}", // mixed orders
		"{,}",
		"{(1,2),}",
	}
	for _, src := range bad {
		if _, err := Parse(chronology.Day, src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: String/Parse round-trips random calendars of orders 1-4, leaves
// in any order and empty groups included (TestColumnarMatchesNaive holds every
// operator's output to the same law, through checkShape).
func TestParseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCalendar(rng, rng.Intn(4)+1)
		got, err := Parse(c.Granularity(), c.String())
		return err == nil && got.Equal(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomCalendar builds a valid random calendar of the given order.
func randomCalendar(rng *rand.Rand, order int) *Calendar {
	gran := chronology.Granularity(rng.Intn(9))
	if order == 1 {
		n := rng.Intn(6)
		ivs := make([]interval.Interval, 0, n)
		lo := int64(rng.Intn(40) - 20)
		if lo == 0 {
			lo = 1
		}
		for i := 0; i < n; i++ {
			hi := chronology.AddTicks(lo, int64(rng.Intn(5)))
			ivs = append(ivs, interval.Interval{Lo: lo, Hi: hi})
			lo = chronology.AddTicks(hi, int64(rng.Intn(3)+1))
		}
		if rng.Intn(2) == 0 {
			// Predicate order, not tick order: what a selection list leaves.
			rng.Shuffle(n, func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
			return newLeaf(gran, ivs, false)
		}
		c, err := FromIntervals(gran, ivs)
		if err != nil {
			panic(err)
		}
		return c
	}
	n := rng.Intn(3) + 1
	subs := make([]*Calendar, 0, n)
	// Sub-calendars must share granularity and order: generate then force.
	first := randomCalendar(rng, order-1)
	subs = append(subs, first)
	for i := 1; i < n; i++ {
		s := randomCalendar(rng, order-1)
		subs = append(subs, forceGran(s, first.Granularity()))
	}
	c, err := FromSubs(subs)
	if err != nil {
		panic(err)
	}
	return c
}

func forceGran(c *Calendar, g chronology.Granularity) *Calendar {
	out, err := Parse(g, c.String())
	if err != nil {
		panic(err)
	}
	return out
}
