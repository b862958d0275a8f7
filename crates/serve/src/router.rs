//! Request routing: pure `Request` → `Response` dispatch over the shared
//! state. No sockets, no threads — integration tests can exercise every
//! endpoint in-process and the worker loop stays a thin shell.

use crate::http::{Request, Response};
use crate::state::AppState;
use dcfail_report::{ExperimentId, RunConfig};
use serde::{Deserialize, Serialize, Value};

/// Stable route label for obs counters/spans (`serve.<label>`).
#[must_use]
pub fn route_label(path: &str) -> &'static str {
    match path.split('/').nth(1) {
        Some("registry") => "registry",
        Some("reports") => "reports",
        Some("whatif") => "whatif",
        Some("audit") => "audit",
        Some("metrics") => "metrics",
        Some("stream") => "stream_alerts",
        _ => "other",
    }
}

/// Dispatches one parsed request.
pub fn route(req: &Request, state: &AppState) -> Response {
    let segments: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["registry"]) => registry(state),
        ("GET", ["reports", id]) => report(state, id),
        ("POST", ["whatif"]) => whatif(state, &req.body),
        ("POST", ["audit"]) => audit(state),
        ("GET", ["metrics"]) => metrics(state),
        ("GET", ["stream", "alerts"]) => stream_alerts(state),
        (
            _,
            ["registry" | "metrics" | "whatif" | "audit"] | ["reports", _] | ["stream", "alerts"],
        ) => Response::error(
            405,
            "method_not_allowed",
            &format!("{} is not supported on {}", req.method, req.path),
        ),
        _ => Response::error(404, "not_found", &format!("no route for {}", req.path)),
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `GET /registry` — every experiment id, its kind, and the live versions.
fn registry(state: &AppState) -> Response {
    let toolkit = state.current();
    let experiments: Vec<Value> = ExperimentId::ALL
        .into_iter()
        .map(|id| {
            obj(vec![
                ("id", id.to_value()),
                ("is_extra", id.is_extra().to_value()),
            ])
        })
        .collect();
    let body = obj(vec![
        (
            "schema_version",
            dcfail_report::ENVELOPE_SCHEMA_VERSION.to_value(),
        ),
        ("data_version", toolkit.data_version().to_value()),
        ("count", (ExperimentId::ALL.len() as u64).to_value()),
        ("experiments", Value::Array(experiments)),
    ]);
    Response::json(200, serde_json::to_string(&body).unwrap_or_default())
}

/// `GET /reports/:id` — the versioned envelope, byte-identical to
/// `repro --json` for the same config (both call `Toolkit::envelope_json`).
fn report(state: &AppState, id: &str) -> Response {
    match id.parse::<ExperimentId>() {
        Ok(id) => Response::json(200, state.current().envelope_json(id).as_bytes()),
        Err(e) => Response::error(404, "unknown_experiment", &e.to_string()),
    }
}

/// `POST /whatif` — the counterfactual report, optionally re-seeded via a
/// JSON body `{"seed": N}` (the seed only matters for seeded runners, but
/// it keys the cache and is echoed in the envelope's config digest).
fn whatif(state: &AppState, body: &[u8]) -> Response {
    let toolkit = state.current();
    match whatif_config(toolkit.config(), body) {
        Ok(config) => Response::json(
            200,
            toolkit
                .envelope_json_with(ExperimentId::Whatif, &config)
                .as_bytes(),
        ),
        Err(detail) => Response::error(400, "bad_request_body", &detail),
    }
}

fn whatif_config(base: &RunConfig, body: &[u8]) -> Result<RunConfig, String> {
    if body.is_empty() {
        return Ok(base.clone());
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(base.clone());
    }
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match value.get("seed") {
        None => Ok(base.clone()),
        Some(seed_value) => {
            let seed = u64::from_value(seed_value).map_err(|e| format!("bad seed: {e}"))?;
            Ok(RunConfig {
                seed,
                ..base.clone()
            })
        }
    }
}

/// `POST /audit` — the dataset invariant-lint pass over the live snapshot.
fn audit(state: &AppState) -> Response {
    let toolkit = state.current();
    let report = dcfail_audit::audit_dataset(toolkit.snapshot().dataset());
    let body = obj(vec![
        ("data_version", toolkit.data_version().to_value()),
        ("clean", report.is_clean().to_value()),
        ("errors", (report.error_count() as u64).to_value()),
        ("warnings", (report.warn_count() as u64).to_value()),
        ("infos", (report.info_count() as u64).to_value()),
        ("text", report.render_text().to_value()),
    ]);
    Response::json(200, serde_json::to_string(&body).unwrap_or_default())
}

/// `GET /metrics` — the server's obs window as schema-versioned JSON.
/// 503 when the process-global obs window is owned elsewhere (one window
/// at a time is the dcfail-obs contract).
fn metrics(state: &AppState) -> Response {
    match state.with_obs(|handle| handle.snapshot().to_json()) {
        Some(json) => Response::json(200, json),
        None => Response::error(
            503,
            "metrics_unavailable",
            "the obs window is owned by another component (or metrics are off)",
        ),
    }
}

/// `GET /stream/alerts` — burst alerts from the background stream ingest,
/// tagged with the data version they were replayed from.
fn stream_alerts(state: &AppState) -> Response {
    let alerts = state.alerts();
    let body = obj(vec![
        ("data_version", alerts.data_version.to_value()),
        ("complete", alerts.complete.to_value()),
        ("events_ingested", alerts.events_ingested.to_value()),
        ("alerts", alerts.alerts.to_value()),
    ]);
    Response::json(200, serde_json::to_string(&body).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;
    use dcfail_obs::ObsHandle;
    use dcfail_report::Toolkit;
    use std::sync::OnceLock;

    fn state() -> &'static AppState {
        static STATE: OnceLock<AppState> = OnceLock::new();
        STATE.get_or_init(|| {
            AppState::new(Toolkit::build_scaled(RunConfig::with_seed(42), 0.02), None)
        })
    }

    fn get(path: &str) -> Request {
        parse_request(&crate::conn::get_request(path)).unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        parse_request(&crate::conn::post_request(path, body)).unwrap()
    }

    #[test]
    fn registry_lists_every_experiment() {
        let resp = route(&get("/registry"), state());
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"count\":24"));
        for id in ExperimentId::ALL {
            assert!(text.contains(&format!("\"id\":\"{id}\"")), "missing {id}");
        }
    }

    #[test]
    fn report_endpoint_equals_toolkit_envelope_bytes() {
        let resp = route(&get("/reports/fig2"), state());
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            state()
                .current()
                .envelope_json(ExperimentId::Fig2)
                .as_bytes()
                .to_vec()
        );
    }

    #[test]
    fn unknown_report_is_a_typed_404_with_suggestion() {
        let resp = route(&get("/reports/figure5"), state());
        assert_eq!(resp.status, 404);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("unknown_experiment"));
        assert!(text.contains("did you mean 'fig5'"));
    }

    #[test]
    fn whatif_accepts_an_optional_seed() {
        let default = route(&post("/whatif", ""), state());
        assert_eq!(default.status, 200);
        let reseeded = route(&post("/whatif", "{\"seed\": 7}"), state());
        assert_eq!(reseeded.status, 200);
        let text = String::from_utf8(reseeded.body).unwrap();
        assert!(text.contains("\"experiment_id\":\"whatif\""));
        let bad = route(&post("/whatif", "{\"seed\": \"soon\"}"), state());
        assert_eq!(bad.status, 400);
        assert!(String::from_utf8(bad.body)
            .unwrap()
            .contains("bad_request_body"));
    }

    #[test]
    fn whatif_bytes_equal_an_independent_envelope() {
        let config = RunConfig::with_seed(7);
        let resp = route(&post("/whatif", "{\"seed\": 7}"), state());
        assert_eq!(resp.status, 200);
        let toolkit = state().current();
        let rendered =
            dcfail_report::run(ExperimentId::Whatif, toolkit.snapshot().dataset(), &config);
        let envelope = dcfail_report::Envelope::new(ExperimentId::Whatif, 0, &config, rendered);
        assert_eq!(resp.body, envelope.to_json().into_bytes());
    }

    #[test]
    fn audit_reports_a_clean_synthetic_snapshot() {
        let resp = route(&post("/audit", ""), state());
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"clean\":true"), "{text}");
        assert!(text.contains("\"errors\":0"));
    }

    #[test]
    fn metrics_without_a_window_is_a_typed_503() {
        let resp = route(&get("/metrics"), state());
        assert_eq!(resp.status, 503);
        assert!(String::from_utf8(resp.body)
            .unwrap()
            .contains("metrics_unavailable"));
    }

    #[test]
    fn metrics_with_a_window_exports_obs_json() {
        let handle = ObsHandle::install().expect("the only test in this binary opening a window");
        let local = AppState::new(
            Toolkit::build_scaled(RunConfig::with_seed(1), 0.02),
            Some(handle),
        );
        dcfail_obs::add("serve.test_counter", 3);
        let resp = route(&get("/metrics"), &local);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("serve.test_counter"));
        local.finish_obs();
    }

    #[test]
    fn stream_alerts_starts_empty_then_reflects_ingest() {
        let resp = route(&get("/stream/alerts"), state());
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"complete\":false"));
        assert!(text.contains("\"alerts\":[]"));
    }

    #[test]
    fn wrong_method_is_405_and_unknown_path_404() {
        assert_eq!(route(&post("/registry", ""), state()).status, 405);
        assert_eq!(route(&get("/whatif"), state()).status, 405);
        assert_eq!(route(&get("/nope"), state()).status, 404);
    }

    #[test]
    fn route_labels_name_the_first_path_segment() {
        for (path, label) in [
            ("/registry", "registry"),
            ("/reports/fig2", "reports"),
            ("/whatif", "whatif"),
            ("/audit", "audit"),
            ("/metrics", "metrics"),
            ("/stream/alerts", "stream_alerts"),
            ("/", "other"),
            ("/nope", "other"),
            ("registry", "other"),
        ] {
            assert_eq!(route_label(path), label, "{path}");
        }
    }

    #[test]
    fn whatif_body_without_a_seed_keeps_the_base_config() {
        let base = RunConfig::with_seed(42);
        for body in [&b""[..], b"  \n", b"{}", b"{\"other\": 1}"] {
            assert_eq!(whatif_config(&base, body), Ok(base.clone()), "{body:?}");
        }
        assert_eq!(whatif_config(&base, b"{\"seed\": 9}").unwrap().seed, 9);
        assert_eq!(
            whatif_config(&base, b"\xff"),
            Err("body is not UTF-8".to_string())
        );
        assert!(whatif_config(&base, b"{\"seed\":").is_err());
    }

    #[test]
    fn slashes_and_query_strings_do_not_change_the_route() {
        let bare = route(&get("/reports/fig2"), state());
        for path in ["/reports/fig2/", "/reports/fig2?x=1", "//reports/fig2"] {
            let resp = route(&get(path), state());
            assert_eq!(resp, bare, "{path}");
        }
    }
}
