// D14: the per-week rescan predictor, scoring every week from t=0.
pub fn weekly_top_scores(dataset: &FailureDataset, weeks: usize) -> Vec<f64> {
    let weights = PredictorWeights::default();
    let mut top = Vec::new();
    for week in 0..weeks {
        let scores = score_week(dataset, week, &weights);
        top.push(scores.iter().map(|&(_, s)| s).fold(0.0, f64::max));
    }
    top
}
