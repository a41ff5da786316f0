package experiments

import "fmt"

// UnknownExperimentError reports an unrecognized experiment id,
// carrying the nearest registered id (by edit distance) when one is
// plausibly close.
type UnknownExperimentError struct {
	ID         string
	Suggestion string
}

func (e *UnknownExperimentError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("experiments: unknown experiment %q (did you mean %q?)", e.ID, e.Suggestion)
	}
	return fmt.Sprintf("experiments: unknown experiment %q", e.ID)
}

// UnknownScaleError reports an unrecognized scale name, carrying the
// nearest recognized name when one is plausibly close. Surfaced on
// bullet-sim stderr for -scale typos.
type UnknownScaleError struct {
	Name       string
	Suggestion string
}

func (e *UnknownScaleError) Error() string {
	if e.Suggestion != "" {
		return fmt.Sprintf("experiments: unknown scale %q (did you mean %q?)", e.Name, e.Suggestion)
	}
	return fmt.Sprintf("experiments: unknown scale %q (have %v)", e.Name, ScaleNames())
}

// Suggest returns the registered experiment id nearest to id by
// Levenshtein distance, or "" when nothing is plausibly close.
func Suggest(id string) string { return Nearest(id, Names()) }

// Nearest returns the candidate nearest to name by Levenshtein
// distance, or "" when nothing is within a third of the name's length
// (rounded up, minimum 2) — far-off typos get no misleading guess.
// Ties break to the first candidate, so with sorted candidates the
// suggestion is deterministic. This is the shared did-you-mean engine
// behind experiment ids and scale names (ScaleByName).
func Nearest(name string, candidates []string) string {
	best, bestDist := "", -1
	for _, cand := range candidates {
		d := editDistance(name, cand)
		if bestDist < 0 || d < bestDist {
			best, bestDist = cand, d
		}
	}
	maxDist := (len(name) + 2) / 3
	if maxDist < 2 {
		maxDist = 2
	}
	if bestDist < 0 || bestDist > maxDist {
		return ""
	}
	return best
}

// editDistance is the classic two-row Levenshtein distance.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 0; i < len(a); i++ {
		cur[0] = i + 1
		for j := 0; j < len(b); j++ {
			cost := 1
			if a[i] == b[j] {
				cost = 0
			}
			m := prev[j] + cost            // substitute
			if d := prev[j+1] + 1; d < m { // delete
				m = d
			}
			if d := cur[j] + 1; d < m { // insert
				m = d
			}
			cur[j+1] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
