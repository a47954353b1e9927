package report

// RenderedSize exposes the exact output size Report.Render pre-computes.
func RenderedSize(r *Report) int { return r.size() }

// TableRenderedSize exposes the exact output size Table.Render
// pre-computes.
func TableRenderedSize(t *Table) int { return t.size() }
