package experiments

import (
	"eyewnder/internal/adsim"
	"eyewnder/internal/logit"
)

// DefaultTable2Config is the workload of the socio-economic bias
// analysis (Section 8): the paper's biases planted into a moderately
// sized population. Table2 needs DemographicBias set, so the planted
// gender / income / age effects exist to be recovered.
func DefaultTable2Config() adsim.Config {
	sim := adsim.DefaultConfig()
	sim.Users = 400
	sim.Sites = 500
	// Targeted-campaign supply must exceed any demographic group's demand
	// (eligible campaigns × frequency cap > targeted slots per week);
	// otherwise every group exhausts the same caps and the planted odds
	// compress toward 1.
	sim.Campaigns = 2000
	sim.AvgVisitsPerWeek = 60
	sim.Weeks = 2
	sim.DemographicBias = true
	sim.Seed = 7
	return sim
}

// Table2Result carries the regression outputs.
type Table2Result struct {
	// Rows are the Table 2 rows of the final D ~ G + A + L fit (gender,
	// income, age levels; the intercept row is first).
	Rows []logit.CoefSummary
	// EmploymentLRT is the anova-style test that justified dropping the
	// employment factor (statistic, df, p).
	EmploymentLRTStat float64
	EmploymentLRTDF   int
	EmploymentLRTP    float64
	// Fig5 holds the predicted targeting probability per factor level
	// (other factors at their base levels) — the Figure 5 series.
	Fig5 map[string]map[string]float64
	// Observations is the number of delivered ads analysed.
	Observations int
}

// factor level name tables, base level first (matching the paper's model).
var (
	genderLevels = []string{"undisclosed", "female", "male"}
	incomeLevels = []string{"0-30k", "30k-60k", "60k-90k", "90k-..."}
	ageLevels    = []string{"1-20", "20-30", "30-40", "40-50", "50-60", "60-70"}
	emplLevels   = []string{"unemployed", "employed"}
)

// Table2 runs the Section 8 analysis: simulate delivery with planted
// demographic biases, regress ad type on gender + age + income, test
// whether employment adds signal (it should not), and compute the
// Figure 5 predicted probabilities.
func Table2(cfg adsim.Config) (*Table2Result, error) {
	sim, err := adsim.New(cfg)
	if err != nil {
		return nil, err
	}
	res := sim.Run()

	full := logit.NewBuilder().
		Factor("gender", genderLevels...).
		Factor("income", incomeLevels...).
		Factor("age", ageLevels...)
	withEmpl := logit.NewBuilder().
		Factor("gender", genderLevels...).
		Factor("income", incomeLevels...).
		Factor("age", ageLevels...).
		Factor("employed", emplLevels...)

	users := sim.Users()
	for _, imp := range res.Impressions {
		u := users[imp.User]
		levels := map[string]string{
			"gender": u.Demo.Gender.String(),
			"income": u.Demo.Income.String(),
			"age":    u.Demo.Age.String(),
		}
		targeted := sim.Campaign(imp.Campaign).Kind.IsTargeted()
		if err := full.Add(levels, targeted); err != nil {
			return nil, err
		}
		levels["employed"] = emplLevels[0]
		if u.Demo.Employed {
			levels["employed"] = emplLevels[1]
		}
		if err := withEmpl.Add(levels, targeted); err != nil {
			return nil, err
		}
	}

	model, err := full.Fit()
	if err != nil {
		return nil, err
	}
	emplModel, err := withEmpl.Fit()
	if err != nil {
		return nil, err
	}
	lrtStat, lrtDF, lrtP, err := logit.LikelihoodRatioTest(model, emplModel)
	if err != nil {
		return nil, err
	}

	out := &Table2Result{
		Rows:              model.Summary(),
		EmploymentLRTStat: lrtStat,
		EmploymentLRTDF:   lrtDF,
		EmploymentLRTP:    lrtP,
		Fig5:              make(map[string]map[string]float64),
		Observations:      full.N(),
	}

	// Figure 5: predicted probability per level, other factors at base.
	base := map[string]string{
		"gender": genderLevels[0],
		"income": incomeLevels[0],
		"age":    ageLevels[0],
	}
	for factorName, levels := range map[string][]string{
		"gender": genderLevels, "income": incomeLevels, "age": ageLevels,
	} {
		out.Fig5[factorName] = make(map[string]float64, len(levels))
		for _, lv := range levels {
			at := map[string]string{}
			for k, v := range base {
				at[k] = v
			}
			at[factorName] = lv
			row, err := full.Row(at)
			if err != nil {
				return nil, err
			}
			out.Fig5[factorName][lv] = model.Predict(row)
		}
	}
	return out, nil
}
