package wse

import "repro/internal/ranks"

// PaperModel evaluates the paper's published deployments (the rows of
// internal/ranks/paper.go) on the CS-2. Calibrating a paper-scale rank
// distribution takes 0.1–0.3 s (nb 70 to nb 25, one core), so a
// PaperModel calibrates each Fig. 12 configuration once; the zero value
// is ready to use, and it is not safe for concurrent use.
type PaperModel struct {
	distCache map[ranks.Config]*ranks.Distribution
}

// Dist returns the calibrated rank distribution of a Fig. 12
// configuration.
func (pm *PaperModel) Dist(cfg ranks.Config) (*ranks.Distribution, error) {
	if d, ok := pm.distCache[cfg]; ok {
		return d, nil
	}
	d, err := ranks.New(cfg)
	if err != nil {
		return nil, err
	}
	if pm.distCache == nil {
		pm.distCache = map[ranks.Config]*ranks.Distribution{}
	}
	pm.distCache[cfg] = d
	return d, nil
}

// Plan returns the experiment a published deployment describes.
func (pm *PaperModel) Plan(pp ranks.PaperPlan) (Plan, error) {
	d, err := pm.Dist(pp.Config)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Dist: d, StackWidth: pp.StackWidth, Systems: pp.Systems, Strategy: Strategy(pp.Strategy),
	}, nil
}

// Evaluate computes the model's metrics for a published deployment.
func (pm *PaperModel) Evaluate(pp ranks.PaperPlan) (*Metrics, error) {
	p, err := pm.Plan(pp)
	if err != nil {
		return nil, err
	}
	return p.Evaluate()
}
