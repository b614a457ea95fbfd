//! Per-run configuration: the evaluation [`Method`] and the
//! [`RunOptions`] builder unifying everything that used to be scattered
//! across `Method` variants, ad-hoc planner entry points, engine-level
//! fault plans and calibration calls.

use mwtj_hilbert::PartitionStrategy;
use mwtj_mapreduce::FaultPlan;
use mwtj_planner::ExecOptions;
use std::fmt;
use std::str::FromStr;

/// How to evaluate a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// The paper's method: `G'_JP` + set cover + Hilbert chain MRJs +
    /// `k_P`-aware malleable scheduling.
    #[default]
    Ours,
    /// Ablation: the paper's planner but grid (block) partitioning
    /// instead of the Hilbert curve. Equivalent to `Ours` with
    /// [`RunOptions::partition`] set to [`PartitionStrategy::Grid`].
    OursGrid,
    /// YSmart-style baseline.
    YSmart,
    /// Hive-style baseline.
    Hive,
    /// Pig-style baseline.
    Pig,
}

impl Method {
    /// All methods, in the order the paper's figures list them.
    pub const ALL: [Method; 5] = [
        Method::Ours,
        Method::OursGrid,
        Method::YSmart,
        Method::Hive,
        Method::Pig,
    ];

    /// The stable lowercase name `Display` prints — also the value of
    /// the `method` label on per-method metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Ours => "ours",
            Method::OursGrid => "ours-grid",
            Method::YSmart => "ysmart",
            Method::Hive => "hive",
            Method::Pig => "pig",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Method {
    type Err = String;

    /// Parse a method name as printed by `Display` (case-insensitive;
    /// `ours_grid` and `oursgrid` are accepted for `ours-grid`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ours" => Ok(Method::Ours),
            "ours-grid" | "ours_grid" | "oursgrid" => Ok(Method::OursGrid),
            "ysmart" => Ok(Method::YSmart),
            "hive" => Ok(Method::Hive),
            "pig" => Ok(Method::Pig),
            other => Err(format!(
                "unknown method `{other}` (expected ours, ours-grid, ysmart, hive or pig)"
            )),
        }
    }
}

/// Builder for one query run.
///
/// Defaults to the paper's method with Hilbert partitioning, no fault
/// injection and no calibration:
///
/// ```
/// use mwtj_core::{Method, RunOptions};
/// use mwtj_hilbert::PartitionStrategy;
///
/// let opts = RunOptions::new()
///     .method(Method::Ours)
///     .partition(PartitionStrategy::Grid);
/// assert_eq!(opts.to_string(), "ours:grid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    method: Method,
    partition: Option<PartitionStrategy>,
    faults: Option<FaultPlan>,
    calibrate: bool,
    skipping: bool,
    deadline_ms: Option<u64>,
    tracing: bool,
    slow_ms: Option<u64>,
}

impl Default for RunOptions {
    /// [`Method::Ours`], Hilbert partitioning, no faults, no
    /// calibration, zone-map skipping **on**, tracing **on**.
    fn default() -> Self {
        RunOptions {
            method: Method::default(),
            partition: None,
            faults: None,
            calibrate: false,
            skipping: true,
            deadline_ms: None,
            tracing: true,
            slow_ms: None,
        }
    }
}

impl RunOptions {
    /// Defaults: [`Method::Ours`], Hilbert partitioning, no faults,
    /// no calibration, zone-map skipping on.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Set the evaluation method.
    pub fn method(mut self, method: Method) -> Self {
        self.method = method;
        self
    }

    /// Override the space-partition strategy for chain MRJs (only
    /// meaningful for [`Method::Ours`]; [`Method::OursGrid`] is
    /// shorthand for `method(Ours).partition(Grid)`).
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = Some(strategy);
        self
    }

    /// Inject task failures for this run only (results are unaffected;
    /// the simulated clock pays for the reruns).
    pub fn fault_plan(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Ensure the engine's cost model has been calibrated (the §6.2
    /// sweep) before planning this run. The sweep runs at most once per
    /// engine; later runs reuse the fitted parameters.
    pub fn calibrated(mut self, yes: bool) -> Self {
        self.calibrate = yes;
        self
    }

    /// Give this run a real-time deadline of `ms` milliseconds of host
    /// wall-clock, measured from admission. A run past its deadline is
    /// cancelled cooperatively (checked at task-attempt and
    /// stream-batch granularity) and fails with a typed
    /// `deadline exceeded` error, releasing its admission ticket and
    /// intermediate DFS files like any other failure. A
    /// queued run whose deadline passes while waiting for admission is
    /// refused without ever running.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Enable or disable zone-map data skipping for this run (on by
    /// default). The result rows are bit-identical either way — the
    /// switch only moves the pruning counters and the Eq. 2–4
    /// byte/record metrics, so it exists for ablations and debugging.
    pub fn skipping(mut self, yes: bool) -> Self {
        self.skipping = yes;
        self
    }

    /// Enable or disable per-run tracing (on by default). With tracing
    /// off the run carries no profile tree; rows, plan choice and the
    /// simulated Eq. 2–4 metrics are bit-identical either way —
    /// instrumentation is observation-only by contract (and by
    /// differential test).
    pub fn tracing(mut self, yes: bool) -> Self {
        self.tracing = yes;
        self
    }

    /// Flag this run as slow when its real wall-clock time reaches
    /// `ms` milliseconds, overriding the engine-wide slow-query
    /// threshold for this run only (0 disables the log for the run).
    pub fn slow_query_ms(mut self, ms: u64) -> Self {
        self.slow_ms = Some(ms);
        self
    }

    /// The chosen method.
    pub fn get_method(&self) -> Method {
        self.method
    }

    /// The effective partition strategy: an explicit
    /// [`RunOptions::partition`] always wins; otherwise the method's
    /// default ([`Method::OursGrid`] → grid, everything else →
    /// Hilbert).
    pub fn effective_partition(&self) -> PartitionStrategy {
        match (self.method, self.partition) {
            (_, Some(p)) => p,
            (Method::OursGrid, None) => PartitionStrategy::Grid,
            (_, None) => PartitionStrategy::Hilbert,
        }
    }

    /// Whether this run asks for a calibrated cost model.
    pub fn wants_calibration(&self) -> bool {
        self.calibrate
    }

    /// Whether zone-map data skipping is enabled for this run.
    pub fn skipping_enabled(&self) -> bool {
        self.skipping
    }

    /// The run's real-time deadline in milliseconds, if one was set.
    pub fn get_deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Whether per-run tracing is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// The run's slow-query threshold override in milliseconds, if one
    /// was set (`Some(0)` = logging explicitly off for this run).
    pub fn get_slow_query_ms(&self) -> Option<u64> {
        self.slow_ms
    }

    /// Lower these options into the planner's execution knobs.
    pub(crate) fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            strategy: self.effective_partition(),
            faults: self.faults.clone(),
            skipping: self.skipping,
            ..ExecOptions::default()
        }
    }
}

impl From<Method> for RunOptions {
    fn from(method: Method) -> Self {
        RunOptions::new().method(method)
    }
}

impl fmt::Display for RunOptions {
    /// `method[:partition][+faults=p@seed/attempts][+calibrated]
    /// [+noskip][+deadline=ms][+notrace][+slow=ms]` — the partition is
    /// printed only when it overrides the method default, `+noskip`
    /// only when skipping is disabled, `+deadline=`/`+slow=` only when
    /// set, `+notrace` only when tracing is disabled. Every printed
    /// form parses back to an equal value (`FromStr` is the exact
    /// inverse; the wire protocol relies on it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.method)?;
        if let Some(p) = self.partition {
            write!(f, ":{p}")?;
        }
        if let Some(faults) = &self.faults {
            write!(f, "+faults={faults}")?;
        }
        if self.calibrate {
            write!(f, "+calibrated")?;
        }
        if !self.skipping {
            write!(f, "+noskip")?;
        }
        if let Some(ms) = self.deadline_ms {
            write!(f, "+deadline={ms}")?;
        }
        if !self.tracing {
            write!(f, "+notrace")?;
        }
        if let Some(ms) = self.slow_ms {
            write!(f, "+slow={ms}")?;
        }
        Ok(())
    }
}

impl FromStr for RunOptions {
    type Err = String;

    /// Parse `method[:partition][+faults=p@seed/attempts][+calibrated]
    /// [+noskip][+deadline=ms][+notrace][+slow=ms]` (e.g. `ours`,
    /// `ours:grid`, `hive+calibrated`, `pig+faults=0.25@99/4`,
    /// `ours+noskip`, `ours+deadline=500`, `ours+notrace`,
    /// `ours+slow=100`) — exactly the forms `Display` prints.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut opts = RunOptions::new();
        let mut parts = s.split('+');
        let head = parts.next().unwrap_or_default();
        for flag in parts {
            let lower = flag.trim().to_ascii_lowercase();
            match lower.as_str() {
                "calibrated" => opts.calibrate = true,
                "noskip" => opts.skipping = false,
                "notrace" => opts.tracing = false,
                _ => {
                    if let Some(plan) = lower.strip_prefix("faults=") {
                        opts.faults = Some(plan.parse()?);
                    } else if let Some(ms) = lower.strip_prefix("deadline=") {
                        opts.deadline_ms = Some(ms.parse::<u64>().map_err(|e| {
                            format!("bad deadline `{ms}` (expected milliseconds): {e}")
                        })?);
                    } else if let Some(ms) = lower.strip_prefix("slow=") {
                        opts.slow_ms = Some(ms.parse::<u64>().map_err(|e| {
                            format!("bad slow-query threshold `{ms}` (expected milliseconds): {e}")
                        })?);
                    } else {
                        return Err(format!("unknown run-option flag `{lower}`"));
                    }
                }
            }
        }
        let (method, partition) = match head.split_once(':') {
            Some((m, p)) => (m, Some(p)),
            None => (head, None),
        };
        opts.method = method.trim().parse()?;
        if let Some(p) = partition {
            opts.partition = Some(p.trim().parse()?);
        }
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_display_fromstr_roundtrip() {
        for m in Method::ALL {
            assert_eq!(m.to_string().parse::<Method>().unwrap(), m);
        }
        assert_eq!("OURS_GRID".parse::<Method>().unwrap(), Method::OursGrid);
        assert!("mapreduce".parse::<Method>().is_err());
    }

    #[test]
    fn options_roundtrip_and_effective_partition() {
        let opts: RunOptions = "ours:zorder+calibrated".parse().unwrap();
        assert_eq!(opts.get_method(), Method::Ours);
        assert_eq!(opts.effective_partition(), PartitionStrategy::ZOrder);
        assert!(opts.wants_calibration());
        assert_eq!(opts.to_string(), "ours:zorder+calibrated");

        assert_eq!(
            RunOptions::from(Method::OursGrid).effective_partition(),
            PartitionStrategy::Grid
        );
        // An explicit partition beats the OursGrid shorthand.
        assert_eq!(
            "ours-grid:zorder"
                .parse::<RunOptions>()
                .unwrap()
                .effective_partition(),
            PartitionStrategy::ZOrder
        );
        assert!("ours+turbo".parse::<RunOptions>().is_err());
        assert!("ours:diagonal".parse::<RunOptions>().is_err());
    }

    #[test]
    fn noskip_roundtrips_and_defaults_on() {
        assert!(RunOptions::new().skipping_enabled());
        let opts: RunOptions = "ours+noskip".parse().unwrap();
        assert!(!opts.skipping_enabled());
        assert_eq!(opts.to_string(), "ours+noskip");
        assert_eq!(opts.to_string().parse::<RunOptions>().unwrap(), opts);
        // The default prints nothing and parses back enabled.
        let dflt = RunOptions::new().method(Method::Hive);
        assert_eq!(dflt.to_string(), "hive");
        assert!(dflt
            .to_string()
            .parse::<RunOptions>()
            .unwrap()
            .skipping_enabled());
    }

    #[test]
    fn fault_plans_roundtrip_through_option_strings() {
        let opts = RunOptions::new()
            .method(Method::Pig)
            .fault_plan(mwtj_mapreduce::FaultPlan::with_probability(0.25, 99));
        let s = opts.to_string();
        assert_eq!(s, "pig+faults=0.25@99/4");
        assert_eq!(s.parse::<RunOptions>().unwrap(), opts);
        // Bare `+faults` (the old asymmetric form) is rejected.
        assert!("ours+faults".parse::<RunOptions>().is_err());
        assert!("ours+faults=bogus".parse::<RunOptions>().is_err());
    }

    #[test]
    fn tracing_and_slow_flags_roundtrip() {
        // Tracing defaults on and prints nothing.
        assert!(RunOptions::new().tracing_enabled());
        assert_eq!(RunOptions::new().method(Method::Hive).to_string(), "hive");
        let opts: RunOptions = "ours+notrace".parse().unwrap();
        assert!(!opts.tracing_enabled());
        assert_eq!(opts.to_string(), "ours+notrace");
        assert_eq!(opts.to_string().parse::<RunOptions>().unwrap(), opts);
        // Slow-query threshold roundtrips and composes.
        let opts = RunOptions::new().slow_query_ms(250);
        assert_eq!(opts.get_slow_query_ms(), Some(250));
        assert_eq!(opts.to_string(), "ours+slow=250");
        assert_eq!(opts.to_string().parse::<RunOptions>().unwrap(), opts);
        let full: RunOptions = "pig+noskip+deadline=100+notrace+slow=10".parse().unwrap();
        assert!(!full.tracing_enabled());
        assert_eq!(full.get_slow_query_ms(), Some(10));
        assert_eq!(full.to_string().parse::<RunOptions>().unwrap(), full);
        assert!("ours+slow=".parse::<RunOptions>().is_err());
        assert!("ours+slow=fast".parse::<RunOptions>().is_err());
    }

    #[test]
    fn deadlines_roundtrip_through_option_strings() {
        assert_eq!(RunOptions::new().get_deadline_ms(), None);
        let opts = RunOptions::new().method(Method::Hive).deadline_ms(750);
        assert_eq!(opts.get_deadline_ms(), Some(750));
        let s = opts.to_string();
        assert_eq!(s, "hive+deadline=750");
        assert_eq!(s.parse::<RunOptions>().unwrap(), opts);
        // Composes with the other flags in print order.
        let full: RunOptions = "pig+faults=0.25@99/4+noskip+deadline=100".parse().unwrap();
        assert_eq!(full.get_deadline_ms(), Some(100));
        assert!(!full.skipping_enabled());
        assert_eq!(full.to_string().parse::<RunOptions>().unwrap(), full);
        assert!("ours+deadline=".parse::<RunOptions>().is_err());
        assert!("ours+deadline=soon".parse::<RunOptions>().is_err());
    }
}
