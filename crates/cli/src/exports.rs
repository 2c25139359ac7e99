//! The global observability options every binary shares: `--metrics
//! FILE` / `--trace FILE` install an [`mc_obs::Registry`] for the
//! duration of the run and export its counters/histograms (JSON lines)
//! and spans afterwards. `--trace` defaults to the JSON-lines span
//! format; `--trace-format chrome` writes a Chrome trace_event JSON
//! array instead (loadable in chrome://tracing and ui.perfetto.dev).

use std::sync::Arc;

use mc_model::McError;

use crate::args::{Args, CliError};

/// Span-trace output formats selected by `--trace-format`.
enum TraceFormat {
    /// One JSON object per line (the historical default).
    Jsonl,
    /// A Chrome trace_event JSON array for chrome://tracing / Perfetto.
    Chrome,
}

/// Parse `--trace-format`. Requiring `--trace` alongside keeps the flag
/// from silently doing nothing.
fn trace_format(value: Option<&str>, trace: Option<&str>) -> Result<TraceFormat, CliError> {
    let Some(value) = value else {
        return Ok(TraceFormat::Jsonl);
    };
    if trace.is_none() {
        return Err(CliError::Usage(
            "--trace-format needs --trace FILE (there is nothing to format otherwise)".into(),
        ));
    }
    match value {
        "jsonl" => Ok(TraceFormat::Jsonl),
        "chrome" => Ok(TraceFormat::Chrome),
        other => Err(CliError::BadValue("trace-format", other.to_string())),
    }
}

/// Write the recorder's exports. Runs even when the command failed, so a
/// partial run still leaves its metrics behind.
fn export(
    registry: &mc_obs::Registry,
    metrics: Option<&str>,
    trace: Option<&str>,
    format: &TraceFormat,
) -> Result<(), CliError> {
    if let Some(path) = metrics {
        std::fs::write(path, registry.metrics_json_lines()).map_err(|e| McError::io(path, e))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = trace {
        let body = match format {
            TraceFormat::Jsonl => registry.trace_json_lines(),
            TraceFormat::Chrome => registry.chrome_trace(),
        };
        std::fs::write(path, body).map_err(|e| McError::io(path, e))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// The export files a run asked for.
pub struct Exports {
    metrics: Option<String>,
    trace: Option<String>,
    format: TraceFormat,
}

impl Exports {
    /// Take `--metrics`, `--trace` and `--trace-format` out of `args`, so
    /// the command's own option check never sees them.
    pub fn take(args: &mut Args) -> Result<Exports, CliError> {
        let metrics = args.options.remove("metrics");
        let trace = args.options.remove("trace");
        let format = trace_format(
            args.options.remove("trace-format").as_deref(),
            trace.as_deref(),
        )?;
        Ok(Exports {
            metrics,
            trace,
            format,
        })
    }

    /// Run `body` with a recorder installed when an export was asked for
    /// or `record` is set (a command that reads the recorder itself, like
    /// `--report`), then clear the recorder and write the files. An
    /// export failure after a failed `body` is printed and `body`'s error
    /// is returned.
    pub fn around(
        &self,
        record: bool,
        body: impl FnOnce() -> Result<(), CliError>,
    ) -> Result<(), CliError> {
        let registry = (record || self.metrics.is_some() || self.trace.is_some()).then(|| {
            let registry = Arc::new(mc_obs::Registry::new());
            mc_obs::set_recorder(registry.clone());
            registry
        });
        let result = body();
        let exported = match &registry {
            Some(r) => export(
                r,
                self.metrics.as_deref(),
                self.trace.as_deref(),
                &self.format,
            ),
            None => Ok(()),
        };
        mc_obs::clear_recorder();
        if let (Err(_), Err(e)) = (&result, &exported) {
            eprintln!("error: {e}");
        }
        result.and(exported)
    }
}
