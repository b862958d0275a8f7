// D14 walk-forward suppressed twin.
pub fn weekly_top_scores(dataset: &FailureDataset, weeks: usize) -> Vec<f64> {
    let weights = PredictorWeights::default();
    let mut top = Vec::new();
    for week in 0..weeks {
        // dlint::allow(D14): fixture stand-in for a bounded loop over a handful of weeks
        let scores = score_week(dataset, week, &weights);
        top.push(scores.iter().map(|&(_, s)| s).fold(0.0, f64::max));
    }
    top
}
