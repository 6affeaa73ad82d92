package analysis

// ForbidWhys exposes each forbid row's message tail, which ends every finding
// the row produces, so the fixture test can tell which rows were tripped.
func ForbidWhys() []string {
	var out []string
	for _, r := range forbidden {
		out = append(out, r.why)
	}
	return out
}
