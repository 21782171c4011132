package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
)

// Table2 prints the dataset statistics table (paper Table II),
// comparing the paper's real networks with the synthetic stand-ins.
func Table2(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tStands for\tPaper |V|\tPaper |E|\t|V|\t|E|")
	paperSizes := map[string][2]int{
		"bj-mini":  {338024, 881050},
		"fla-mini": {1070376, 2687902},
		"usw-mini": {6262104, 15119284},
	}
	for _, ds := range dss {
		ps := paperSizes[ds.name]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			ds.name, ds.paper, ps[0], ps[1], ds.g.NumVertices(), ds.g.NumEdges())
	}
	return tw.Flush()
}

// Table3 prints mean relative error and mean query time for every
// method on every dataset (paper Table III).
func Table3(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMethod\tRel.err(%)\tQuery time")
	for _, ds := range dss {
		pairs := randomPairs(ds.g, cfg.Queries, cfg.Seed+int64(len(ds.name)))
		suite, err := buildSuite(ds, cfg)
		if err != nil {
			return err
		}
		for _, m := range suite {
			st := metrics.Evaluate(metrics.EstimatorFunc(m.estimate), pairs)
			ns := timeEstimator(m.estimate, pairs)
			errStr := fmt.Sprintf("%.2f", st.MeanRel*100)
			if m.exact {
				errStr = "0 (exact)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", ds.name, m.name, errStr, fmtNanos(ns))
		}
		fmt.Fprintln(tw, "\t\t\t")
	}
	return tw.Flush()
}

// Table4 prints index size and building time per method and dataset
// (paper Table IV).
func Table4(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMethod\tIndex (MB)\tBuild time")
	for _, ds := range dss {
		suite, err := buildSuite(ds, cfg)
		if err != nil {
			return err
		}
		for _, m := range suite {
			if m.indexBytes == 0 && m.buildTime == 0 {
				continue // coordinate baselines have no index
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%v\n",
				ds.name, m.name, fmtBytes(m.indexBytes), m.buildTime.Round(time.Millisecond))
			if m.phases != "" {
				fmt.Fprintf(tw, "\t\t\t%s\n", m.phases)
			}
		}
		fmt.Fprintln(tw, "\t\t\t")
	}
	return tw.Flush()
}

// Fig13 prints mean query time per distance-scale group for every
// method (paper Figure 13: Q=5 groups on BJ, Q=7 on the larger sets).
func Fig13(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, ds := range dss {
		perGroup := cfg.Queries / ds.groups
		if perGroup < 50 {
			perGroup = 50
		}
		groups, diam := distanceGroups(ds.g, ds.groups, perGroup, cfg.Seed)
		suite, err := buildSuite(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s (diameter %.0f)\t", ds.name, diam)
		for gi := range groups {
			fmt.Fprintf(tw, "≤%.0f\t", diam*float64(gi+1)/float64(ds.groups))
		}
		fmt.Fprintln(tw)
		for _, m := range suite {
			fmt.Fprintf(tw, "%s\t", m.name)
			for _, pairs := range groups {
				fmt.Fprintf(tw, "%s\t", fmtNanos(timeEstimator(m.estimate, pairs)))
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig15 prints the cumulative percentage of queries under each error
// threshold for the approximate methods (paper Figure 15).
func Fig15(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	thresholds := []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, ds := range dss {
		pairs := randomPairs(ds.g, cfg.Queries, cfg.Seed+7)
		suite, err := buildSuite(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t", ds.name)
		for _, th := range thresholds {
			fmt.Fprintf(tw, "≤%.1f%%\t", th*100)
		}
		fmt.Fprintln(tw)
		for _, m := range suite {
			if m.exact {
				continue
			}
			cdf := metrics.CDF(metrics.EstimatorFunc(m.estimate), pairs, thresholds)
			fmt.Fprintf(tw, "%s\t", m.name)
			for _, c := range cdf {
				fmt.Fprintf(tw, "%.1f%%\t", c*100)
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig17 prints per-distance-scale mean relative (line) and absolute
// (bar) errors for the approximate methods (paper Figure 17).
func Fig17(w io.Writer, cfg Config) error {
	dss, err := loadDatasets(cfg)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, ds := range dss {
		perGroup := cfg.Queries / ds.groups
		if perGroup < 50 {
			perGroup = 50
		}
		groups, diam := distanceGroups(ds.g, ds.groups, perGroup, cfg.Seed+13)
		suite, err := buildSuite(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t", ds.name)
		for gi := range groups {
			fmt.Fprintf(tw, "≤%.0f\t", diam*float64(gi+1)/float64(ds.groups))
		}
		fmt.Fprintln(tw)
		for _, m := range suite {
			if m.exact {
				continue
			}
			fmt.Fprintf(tw, "%s rel%%\t", m.name)
			for _, pairs := range groups {
				st := metrics.Evaluate(metrics.EstimatorFunc(m.estimate), pairs)
				fmt.Fprintf(tw, "%.2f\t", st.MeanRel*100)
			}
			fmt.Fprintln(tw)
			fmt.Fprintf(tw, "%s abs\t", m.name)
			for _, pairs := range groups {
				st := metrics.Evaluate(metrics.EstimatorFunc(m.estimate), pairs)
				fmt.Fprintf(tw, "%.1f\t", st.MeanAbs)
			}
			fmt.Fprintln(tw)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
