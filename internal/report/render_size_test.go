package report_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"privascope/internal/report"
	"privascope/internal/risk"
)

// referenceTableRender is the straightforward rendering the pre-sized
// Table.Render must reproduce: measure every column, then pad each cell
// (the last one included) with a freshly repeated string.
func referenceTableRender(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// randomCell is empty, short, or wider than the renderer's padding strings.
func randomCell(rng *rand.Rand) string {
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1:
		return strings.Repeat("w", 60+rng.Intn(200))
	default:
		return fmt.Sprintf("c%d", rng.Intn(1000))
	}
}

// TestTableRenderMatchesReference checks generated tables, empty ones and
// ones with empty or very wide cells and short or long rows, against the
// reference rendering, and the pre-computed size against the output.
func TestTableRenderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		headers := make([]string, rng.Intn(6))
		for i := range headers {
			headers[i] = randomCell(rng)
		}
		tbl := report.NewTable(headers...)
		rows := make([][]string, rng.Intn(12))
		for r := range rows {
			cells := make([]string, rng.Intn(len(headers)+3))
			for i := range cells {
				cells[i] = randomCell(rng)
			}
			tbl.AddRow(cells...)
			rows[r] = make([]string, len(headers))
			copy(rows[r], cells)
		}
		got := tbl.Render()
		if want := referenceTableRender(headers, rows); got != want {
			t.Fatalf("round %d: Render differs from the reference\n--- got ---\n%q\n--- want ---\n%q", round, got, want)
		}
		if size := report.TableRenderedSize(tbl); size != len(got) {
			t.Fatalf("round %d: pre-computed size %d, rendered %d bytes", round, size, len(got))
		}
		r := report.NewReport(randomCell(rng))
		r.AddSection(randomCell(rng), randomCell(rng))
		r.AddTable(randomCell(rng), randomCell(rng), tbl)
		r.AddTable("", "", report.NewTable())
		if out := r.Render(); report.RenderedSize(r) != len(out) {
			t.Fatalf("round %d: report pre-computed size %d, rendered %d bytes", round, report.RenderedSize(r), len(out))
		}
	}
}

// TestGoldenReportSizes checks the pre-computed size of every golden
// plain-text report.
func TestGoldenReportSizes(t *testing.T) {
	p, profiles := goldenModel(t)
	analyzer := risk.MustAnalyzer(risk.Config{})
	a, err := analyzer.Analyze(p, profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	pa, err := analyzer.AnalyzePopulation(p, profiles)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*report.Report{
		"model summary":         report.ModelSummary(p),
		"disclosure assessment": report.DisclosureAssessment(a),
		"population summary":    report.PopulationSummary(pa),
	} {
		if size, out := report.RenderedSize(r), r.Render(); size != len(out) {
			t.Errorf("%s: pre-computed size %d, rendered %d bytes", name, size, len(out))
		}
	}
}

// TestRenderAllocations pins rendering at one allocation, the pre-sized
// output buffer, however many cells the tables hold.
func TestRenderAllocations(t *testing.T) {
	for _, rows := range []int{0, 10, 1000} {
		tbl := report.NewTable("risk", "actor", "explanation")
		for i := 0; i < rows; i++ {
			tbl.AddRow("medium", fmt.Sprintf("actor%d", i%7), strings.Repeat("x", i%150))
		}
		r := report.NewReport("Title")
		r.AddSection("Intro", "text")
		r.AddTable("Findings", "body", tbl)
		r.AddTable("Again", "", tbl)
		if n := testing.AllocsPerRun(20, func() { _ = tbl.Render() }); n > 1 {
			t.Errorf("%d rows: Table.Render allocates %.0f times, want at most 1", rows, n)
		}
		if n := testing.AllocsPerRun(20, func() { _ = r.Render() }); n > 1 {
			t.Errorf("%d rows: Report.Render allocates %.0f times, want at most 1", rows, n)
		}
	}
}
