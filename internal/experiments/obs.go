package experiments

// NamedExposition pairs one experiment configuration with the final
// /metrics snapshot of the grid that ran it.
type NamedExposition struct {
	Name       string
	Exposition string
}

// configMetrics is what a result offers when each of its table rows is
// one grid configuration: the rows (first cell: the configuration's
// name) and the metrics by that name.
type configMetrics interface {
	configMetrics() ([][]string, map[string]BatchMetrics)
}

func (r *RankingResult) configMetrics() (rows [][]string, byName map[string]BatchMetrics) {
	return r.Rows, r.Results
}

func (r *GatingResult) configMetrics() (rows [][]string, byName map[string]BatchMetrics) {
	return r.Rows, r.Results
}

func (r *EstimatorEffectResult) configMetrics() (rows [][]string, byName map[string]BatchMetrics) {
	return r.Rows, r.Results
}

func (r *FaultResult) configMetrics() (rows [][]string, byName map[string]BatchMetrics) {
	return r.Rows, r.Results
}

func (r *CrashResult) configMetrics() (rows [][]string, byName map[string]BatchMetrics) {
	return r.Rows, r.Results
}

// ObsExpositions extracts per-configuration metrics snapshots from an
// experiment result, in table-row order. Results that do not carry
// per-configuration BatchMetrics return nil. Iterating the rows
// (rather than the metrics map) keeps the output order deterministic.
func ObsExpositions(res any) []NamedExposition {
	cm, ok := res.(configMetrics)
	if !ok {
		return nil
	}
	rows, byName := cm.configMetrics()
	var out []NamedExposition
	for _, row := range rows {
		if len(row) == 0 {
			continue
		}
		if m, ok := byName[row[0]]; ok && m.Exposition != "" {
			out = append(out, NamedExposition{Name: row[0], Exposition: m.Exposition})
		}
	}
	return out
}
