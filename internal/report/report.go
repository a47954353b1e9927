// Package report renders analysis results as plain-text and Markdown
// documents: model summaries, unwanted-disclosure assessments, the
// pseudonymisation-risk table of the paper's Table I, and policy-compliance
// reports. The CLI tools and examples print these; EXPERIMENTS.md embeds
// them.
package report

import (
	"fmt"
	"slices"
	"strings"
)

// Table is a simple column-aligned table builder.
type Table struct {
	headers []string
	// cells holds the rows back to back, len(headers) cells each.
	cells []string
	nrows int
	// widths[i] is the widest cell of column i, header included, kept up to
	// date by AddRow so rendering needs no measuring pass.
	widths []int
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	t := &Table{headers: append([]string(nil), headers...), widths: make([]int, len(headers))}
	for i, h := range headers {
		t.widths[i] = len(h)
	}
	return t
}

// AddRow appends a row; short rows are padded with empty cells and long rows
// are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	for i := range t.headers {
		c := ""
		if i < len(cells) {
			c = cells[i]
			t.widths[i] = max(t.widths[i], len(c))
		}
		t.cells = append(t.cells, c)
	}
	t.nrows++
}

// reserve makes room for n more rows, so a caller that knows the row count
// fills the table without regrowing it.
func (t *Table) reserve(n int) { t.cells = slices.Grow(t.cells, n*len(t.headers)) }

// row returns the cells of data row r.
func (t *Table) row(r int) []string {
	n := len(t.headers)
	return t.cells[r*n : (r+1)*n]
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return t.nrows }

// colGap separates the columns of a plain-text table.
const colGap = "  "

// Fill strings for padding and rules; pad writes longer runs in pieces.
const (
	spaces = "                                                                "
	dashes = "----------------------------------------------------------------"
	equals = "================================================================"
)

// pad writes n bytes of fill's repeated character.
func pad(b *strings.Builder, fill string, n int) {
	for n > len(fill) {
		b.WriteString(fill)
		n -= len(fill)
	}
	b.WriteString(fill[:n])
}

// size returns the exact length of Render's output: the header, the
// separator and every row are one line of the same width.
func (t *Table) size() int {
	line := 1 // newline
	for i, w := range t.widths {
		if i > 0 {
			line += len(colGap)
		}
		line += w
	}
	return (2 + t.nrows) * line
}

// Render produces an aligned plain-text rendering with a separator line under
// the header.
func (t *Table) Render() string {
	var b strings.Builder
	b.Grow(t.size())
	t.renderTo(&b)
	return b.String()
}

// renderTo writes the plain-text rendering into b.
func (t *Table) renderTo(b *strings.Builder) {
	t.writeRow(b, t.headers)
	for i, w := range t.widths {
		if i > 0 {
			b.WriteString(colGap)
		}
		pad(b, dashes, w)
	}
	b.WriteByte('\n')
	for r := 0; r < t.nrows; r++ {
		t.writeRow(b, t.row(r))
	}
}

func (t *Table) writeRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteString(colGap)
		}
		b.WriteString(c)
		pad(b, spaces, t.widths[i]-len(c))
	}
	b.WriteByte('\n')
}

// RenderMarkdown produces a GitHub-flavoured Markdown table.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for r := 0; r < t.nrows; r++ {
		row := t.row(r)
		escaped := make([]string, len(row))
		for i, c := range row {
			escaped[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(escaped, " | ") + " |\n")
	}
	return b.String()
}

// Section is one titled block of a report: free text, a table, or both.
type Section struct {
	Title string
	Body  string
	Table *Table
}

// Report is a titled sequence of sections.
type Report struct {
	Title    string
	sections []Section
}

// NewReport creates an empty report with the given title.
func NewReport(title string) *Report { return &Report{Title: title} }

// AddSection appends a text section.
func (r *Report) AddSection(title, body string) *Report {
	r.sections = append(r.sections, Section{Title: title, Body: body})
	return r
}

// AddTable appends a table section with optional introductory text.
func (r *Report) AddTable(title, body string, table *Table) *Report {
	r.sections = append(r.sections, Section{Title: title, Body: body, Table: table})
	return r
}

// Sections returns a copy of the report's sections.
func (r *Report) Sections() []Section { return append([]Section(nil), r.sections...) }

// size returns the exact length of Render's output.
func (r *Report) size() int {
	n := 0
	if r.Title != "" {
		n += 2*(len(r.Title)+1) + 1
	}
	for _, s := range r.sections {
		if s.Title != "" {
			n += 2 * (len(s.Title) + 1)
		}
		if s.Body != "" {
			n += len(s.Body) + 1
		}
		if s.Table != nil {
			n += s.Table.size()
		}
		n++
	}
	return n
}

// Render produces the plain-text document. The output is sized exactly up
// front and every table writes straight into it.
func (r *Report) Render() string {
	var b strings.Builder
	b.Grow(r.size())
	if r.Title != "" {
		b.WriteString(r.Title)
		b.WriteByte('\n')
		pad(&b, equals, len(r.Title))
		b.WriteString("\n\n")
	}
	for _, s := range r.sections {
		if s.Title != "" {
			b.WriteString(s.Title)
			b.WriteByte('\n')
			pad(&b, dashes, len(s.Title))
			b.WriteByte('\n')
		}
		if s.Body != "" {
			b.WriteString(s.Body)
			b.WriteByte('\n')
		}
		if s.Table != nil {
			s.Table.renderTo(&b)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderMarkdown produces the Markdown document.
func (r *Report) RenderMarkdown() string {
	var b strings.Builder
	if r.Title != "" {
		fmt.Fprintf(&b, "# %s\n\n", r.Title)
	}
	for _, s := range r.sections {
		if s.Title != "" {
			fmt.Fprintf(&b, "## %s\n\n", s.Title)
		}
		if s.Body != "" {
			b.WriteString(s.Body + "\n\n")
		}
		if s.Table != nil {
			b.WriteString(s.Table.RenderMarkdown())
			b.WriteString("\n")
		}
	}
	return b.String()
}
