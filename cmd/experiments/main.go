// Command experiments regenerates every figure and worked example of the
// paper (which has no numeric evaluation tables — its results are the
// algebra walkthroughs of §3.1-§3.3, the CALENDARS catalog of Figure 1, the
// parse trees of Figures 2-3, and the DBCRON architecture of Figure 4), and
// measures the performance claims behind the §3.4 optimizations.
//
// Each section is labeled with the experiment id used in DESIGN.md and
// EXPERIMENTS.md (E1-E10).
package main

import (
	"fmt"
	"log"

	"strings"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/multical"
)

// lines counts a rendered tree's nodes (one node per line).
func lines(tree string) int {
	return len(strings.Split(strings.TrimRight(tree, "\n"), "\n"))
}

// indent prefixes each line.
func indent(text, prefix string) string {
	var b strings.Builder
	for _, ln := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		b.WriteString(prefix)
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := e1AlgebraExamples(); err != nil {
		return err
	}
	if err := e2GenerateCaloperate(); err != nil {
		return err
	}
	if err := e3Figure1(); err != nil {
		return err
	}
	if err := e4e5Scripts(); err != nil {
		return err
	}
	if err := e6e7ParseTrees(); err != nil {
		return err
	}
	if err := e8Windows(); err != nil {
		return err
	}
	if err := e9DBCron(); err != nil {
		return err
	}
	if err := e10Motivations(); err != nil {
		return err
	}
	if err := e11MultiCal(); err != nil {
		return err
	}
	return nil
}

func header(id, title string) {
	fmt.Printf("\n==== %s: %s ====\n", id, title)
}

// sys1993 opens a system anchored at Jan 1 1993 so tick values match §3.1.
func sys1993() (*calsys.System, *calsys.VirtualClock, error) {
	clock := calsys.NewVirtualClock(0)
	s, err := calsys.Open(calsys.WithEpoch(calsys.MustDate(1993, 1, 1)), calsys.WithClock(clock))
	return s, clock, err
}

func e1AlgebraExamples() error {
	header("E1", "§3.1 worked algebra examples (1993-anchored day ticks)")
	s, _, err := sys1993()
	if err != nil {
		return err
	}
	jan1, dec31 := calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 12, 31)

	cases := []struct{ label, expr, paper string }{
		{"WEEKS:during:Jan-1993", "WEEKS:during:interval(1, 31, DAYS)",
			"{(4,10),(11,17),(18,24),(25,31)}"},
		{"WEEKS:overlaps:Jan-1993", "WEEKS:overlaps:interval(1, 31, DAYS)",
			"{(1,3),(4,10),(11,17),(18,24),(25,31)}"},
		{"WEEKS.overlaps.Jan-1993", "WEEKS.overlaps.interval(1, 31, DAYS)",
			"{(-4,3),(4,10),(11,17),(18,24),(25,31)}"},
		{"[3]/WEEKS:overlaps:Jan-1993", "[3]/WEEKS:overlaps:interval(1, 31, DAYS)",
			"{(11,17)}"},
		{"[3]/WEEKS:overlaps:Year-1993 (3rd week of every month)", "[3]/WEEKS:overlaps:MONTHS",
			"{(11,17),(46,52),(74,80),(102,108),...}"},
	}
	for _, c := range cases {
		cal, err := s.EvalCalendar(c.expr, jan1, dec31)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label, err)
		}
		fmt.Printf("  %-55s\n    paper:    %s\n    measured: %s\n", c.label, c.paper, cal.Flatten())
	}
	return nil
}

func e2GenerateCaloperate() error {
	header("E2", "§3.2 generate and caloperate")
	s, err := calsys.Open() // 1987 epoch, as in the paper's example
	if err != nil {
		return err
	}
	cal, err := s.EvalCalendar(`generate(YEARS, DAYS, "Jan 1 1987", "Jan 3 1992")`,
		calsys.MustDate(1987, 1, 1), calsys.MustDate(1992, 12, 31))
	if err != nil {
		return err
	}
	fmt.Println("  generate(YEARS, DAYS, [Jan 1 1987, Jan 3 1992])")
	fmt.Println("    paper:    {(1,365),(366,731),(732,1096),(1097,1461),(1462,1826),(1827,1829)}")
	fmt.Printf("    measured: %s\n", cal)

	q, err := s.EvalCalendar(`caloperate(generate(MONTHS, DAYS, "Jan 1 1987", "Dec 31 1987"), 3)`,
		calsys.MustDate(1987, 1, 1), calsys.MustDate(1987, 12, 31))
	if err != nil {
		return err
	}
	fmt.Println("  QUARTERS = caloperate(MONTHS, *; 3)")
	fmt.Println("    paper:    {(1,90),(91,181),...}")
	fmt.Printf("    measured: %s\n", q)
	return nil
}

func e3Figure1() error {
	header("E3", "Figure 1: the CALENDARS catalog row for Tuesdays")
	s, err := calsys.Open()
	if err != nil {
		return err
	}
	if err := s.DefineCalendar("Tuesdays", "[2]/DAYS:during:WEEKS", calsys.GranAuto); err != nil {
		return err
	}
	row, err := s.CalendarFigureRow("Tuesdays")
	if err != nil {
		return err
	}
	fmt.Print(row)
	cal, err := s.EvalCalendar("Tuesdays", calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 1, 31))
	if err != nil {
		return err
	}
	fmt.Printf("  Tuesdays over January 1993: %s\n", cal.Flatten())
	return nil
}

func e4e5Scripts() error {
	header("E4/E5", "§3.3 scripts: EMP-DAYS, option expiration, last trading day")
	s, clock, err := sys1993()
	if err != nil {
		return err
	}
	hol, err := calsys.PointCalendar(calsys.Day, 31, 90)
	if err != nil {
		return err
	}
	if err := s.DefineStoredCalendar("HOLIDAYS", hol); err != nil {
		return err
	}
	var bus []calsys.Tick
	for d := calsys.Tick(1); d <= 150; d++ {
		if d == 31 || d == 89 || d == 90 {
			continue
		}
		bus = append(bus, d)
	}
	busCal, err := calsys.PointCalendar(calsys.Day, bus...)
	if err != nil {
		return err
	}
	if err := s.DefineStoredCalendar("AM_BUS_DAYS", busCal); err != nil {
		return err
	}

	v, err := s.RunCalendarScript(`{LDOM = [n]/DAYS:during:MONTHS;
		LDOM_HOL = LDOM:intersects:HOLIDAYS;
		LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;
		return (LDOM - LDOM_HOL + LAST_BUS_DAY);}`,
		calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 4, 30))
	if err != nil {
		return err
	}
	fmt.Println("  EMP-DAYS")
	fmt.Println("    paper:    {(30,30),(59,59),(88,88),...}")
	fmt.Printf("    measured: %s\n", v.Cal)

	expiry, err := s.RunCalendarScript(`{Fridays = [5]/DAYS:during:WEEKS;
		temp1 = [3]/Fridays:overlaps:interval(1, 31, DAYS);
		if (temp1:intersects:HOLIDAYS)
			return([n]/AM_BUS_DAYS:<:temp1);
		else
			return(temp1);}`,
		calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 1, 31))
	if err != nil {
		return err
	}
	fmt.Println("  option expiration (3rd Friday of January 1993, a business day)")
	fmt.Printf("    measured: %s (Jan 15 1993)\n", expiry.Cal)

	// Last trading day: wait under the virtual clock until the alert fires.
	clock.Set(s.SecondsOf(calsys.MustDate(1993, 1, 18)))
	waits := 0
	alert, err := s.RunCalendarScriptWithWait(`{ temp1 = [n]/AM_BUS_DAYS:during:interval(1, 31, DAYS);
		temp2 = [-7]/AM_BUS_DAYS:<:temp1;
		while (today:<:temp2) ;
		return ("LAST TRADING DAY");}`,
		calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 1, 31),
		func() error {
			waits++
			clock.Advance(calsys.SecondsPerDay)
			return nil
		})
	if err != nil {
		return err
	}
	fmt.Printf("  last trading day: waited %d days from Jan 18, alert %q on %s\n",
		waits, alert.Str, s.Today())
	return nil
}

func e6e7ParseTrees() error {
	header("E6/E7", "Figures 2-3: parse trees, initial vs factorized")
	s, _, err := sys1993()
	if err != nil {
		return err
	}
	if err := s.DefineCalendar("Mondays", "[1]/DAYS:during:WEEKS", calsys.GranAuto); err != nil {
		return err
	}
	if err := s.DefineCalendar("Januarys", "[1]/MONTHS:during:YEARS", calsys.GranAuto); err != nil {
		return err
	}
	if err := s.DefineCalendar("Third_Weeks", "[3]/WEEKS:overlaps:MONTHS", calsys.GranAuto); err != nil {
		return err
	}
	for _, expr := range []string{
		"Mondays:during:Januarys:during:1993/YEARS",
		"Third_Weeks:during:Januarys:during:1993/YEARS",
	} {
		initial, factored, err := s.ParseTree(expr)
		if err != nil {
			return err
		}
		ni, nf := lines(initial), lines(factored)
		fmt.Printf("  %s\n", expr)
		fmt.Printf("  INITIAL (%d nodes)\n%s", ni, indent(initial, "    "))
		fmt.Printf("  FACTORIZED (%d nodes)\n%s", nf, indent(factored, "    "))
	}
	return nil
}

func e8Windows() error {
	header("E8", "§3.4 window inference: generation cost, on vs off")
	s, _, err := sys1993()
	if err != nil {
		return err
	}
	if err := s.DefineCalendar("Mondays", "[1]/DAYS:during:WEEKS", calsys.GranAuto); err != nil {
		return err
	}
	if err := s.DefineCalendar("Januarys", "[1]/MONTHS:during:YEARS", calsys.GranAuto); err != nil {
		return err
	}
	expr := "Mondays:during:Januarys:during:1993/YEARS"
	for _, years := range []int{1, 4, 16, 64} {
		costOn, costOff, err := s.WindowCosts(expr,
			calsys.MustDate(1993, 1, 1), calsys.MustDate(1993+years-1, 12, 31))
		if err != nil {
			return err
		}
		fmt.Printf("  base window %3d years: generated ticks windowed=%-8d unwindowed=%-8d (%.1fx)\n",
			years, costOn, costOff, float64(costOff)/float64(costOn))
	}
	return nil
}

func e9DBCron() error {
	header("E9", "Figure 4: DBCRON probe/fire over a year of virtual time")
	for _, nRules := range []int{1, 10, 100} {
		s, clock, err := sys1993()
		if err != nil {
			return err
		}
		fired := 0
		for i := 0; i < nRules; i++ {
			name := fmt.Sprintf("r%d", i)
			weekday := i%5 + 1
			expr := fmt.Sprintf("[%d]/DAYS:during:WEEKS", weekday)
			if err := s.OnCalendar(name, expr, func(tx *calsys.Txn, at int64) error {
				fired++
				return nil
			}); err != nil {
				return err
			}
		}
		cron, err := s.StartDBCron(calsys.SecondsPerDay)
		if err != nil {
			return err
		}
		for d := 0; d < 365; d++ {
			if _, err := cron.AdvanceTo(clock.Advance(calsys.SecondsPerDay)); err != nil {
				return err
			}
		}
		st := cron.Stats()
		fmt.Printf("  %4d rules, T=1d, 365 virtual days: %6d firings (%d observed), lateness %ds\n",
			nRules, st.Fired, fired, st.LateSum)
	}
	return nil
}

func e10Motivations() error {
	header("E10", "§1 motivations: GNP series, 30/360 arithmetic")
	s, err := calsys.Open()
	if err != nil {
		return err
	}
	gnp, err := s.NewRegularSeries("GNP", "[n]/DAYS:during:caloperate(MONTHS, 3)",
		calsys.MustDate(1987, 1, 1))
	if err != nil {
		return err
	}
	gnp.Append(4612, 4674, 4755, 4832)
	obs, err := gnp.Observations()
	if err != nil {
		return err
	}
	fmt.Printf("  quarterly GNP valid times (generated): %s .. %s\n",
		s.CivilOfDayTick(obs[0].Span.Lo), s.CivilOfDayTick(obs[3].Span.Lo))

	a, b := calsys.MustDate(1993, 1, 1), calsys.MustDate(1994, 1, 1)
	fmt.Printf("  days 1993-01-01 -> 1994-01-01: 30/360 = %d, actual = %d\n",
		calsys.Thirty360.Days(a, b), calsys.ActualActual.Days(a, b))
	return nil
}

func e11MultiCal() error {
	header("E11", "§5 comparison: the MultiCal baseline")
	ch := chronology.MustNew(chronology.DefaultEpoch)
	g := multical.Gregorian{Chron: ch}
	fc := multical.Fiscal{Chron: ch}
	e, err := g.FromFields(multical.FieldSet{"year": 1993, "month": 11, "day": 5})
	if err != nil {
		return err
	}
	en, _ := multical.FormatEvent(g, multical.English, "%d %B %Y", e)
	de, _ := multical.FormatEvent(g, multical.German, "%d. %B %Y", e)
	fy, _ := multical.FormatEvent(fc, multical.English, "FY%f month %m", e)
	fmt.Printf("  one event, three renderings: %q / %q / %q\n", en, de, fy)
	fmt.Println("  (MultiCal's strengths: multiple division systems and languages for I/O)")

	// Where MultiCal has no answer: nested interval lists. The paper's
	// system expresses \"3rd Friday of every month\" in one line; MultiCal
	// users hand-code an event/span loop (see internal/multical tests and
	// BenchmarkMultiCalBaselineThirdFridays).
	sys, err := calsys.Open()
	if err != nil {
		return err
	}
	cal, err := sys.EvalCalendar("[3]/([5]/DAYS:during:WEEKS):overlaps:MONTHS",
		calsys.MustDate(1993, 1, 1), calsys.MustDate(1993, 3, 31))
	if err != nil {
		return err
	}
	fmt.Print("  third Fridays (one algebra expression): ")
	for i, iv := range cal.Flatten().Intervals() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(sys.CivilOfDayTick(iv.Lo))
	}
	fmt.Println()
	return nil
}
