//! Shared argument parsing for every scenario-driven subcommand:
//! `figures fetch|catalog|grid|timeline|chaos` all accept the same
//! `--scenario <file>`, `--seed <n>`, `--json`, and `--trace` flags
//! through this one helper, instead of each growing its own ad-hoc
//! parser.
//!
//! `--scenario` swaps the subcommand's preset (a committed file under
//! `scenarios/`, compiled in) for a committed or hand-written scenario file
//! (see the DESIGN.md §17 schema); `--seed` overrides the scenario's seed
//! in place. Without either flag the preset runs.

use gdmp_workloads::{Scenario, ScenarioError};

/// The flags shared by every scenario-driven entry point.
#[derive(Debug, Clone, Default)]
pub struct ScenarioArgs {
    /// Emit machine-readable JSON lines instead of human tables.
    pub json: bool,
    /// Append the telemetry dump of grid-driven experiments.
    pub trace: bool,
    /// Path to a scenario file replacing the subcommand's preset.
    pub scenario: Option<String>,
    /// Seed override applied to the scenario (preset or loaded).
    pub seed: Option<u64>,
}

impl ScenarioArgs {
    /// Parse the shared flags out of `args`, leaving positional arguments
    /// (subcommand names, output paths) in the returned `Vec`. Unknown
    /// `--flags` are an error naming the flag and listing what is
    /// accepted.
    pub fn parse(args: &[String]) -> Result<(ScenarioArgs, Vec<String>), String> {
        let mut out = ScenarioArgs::default();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            let mut value = |name: &str| -> Result<String, String> {
                match inline.clone() {
                    Some(v) => Ok(v),
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value (e.g. `{name} <value>`)")),
                }
            };
            match flag {
                "--json" => out.json = true,
                "--trace" => out.trace = true,
                "--scenario" => out.scenario = Some(value("--scenario")?),
                "--seed" => {
                    let raw = value("--seed")?;
                    out.seed = Some(parse_seed(&raw)?);
                }
                other if other.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{other}` (accepted flags: --scenario <file>, \
                         --seed <n>, --json, --trace)"
                    ));
                }
                _ => positional.push(arg.clone()),
            }
        }
        Ok((out, positional))
    }

    /// The scenario this invocation runs: the `--scenario` file if given,
    /// otherwise the named preset, with any `--seed` override applied.
    pub fn base_scenario(&self, preset: &str) -> Result<Scenario, ScenarioError> {
        let mut scenario = match &self.scenario {
            Some(path) => Scenario::load(path)?,
            None => Scenario::preset(preset)?,
        };
        if let Some(seed) = self.seed {
            scenario.seed = seed;
        }
        Ok(scenario)
    }
}

/// Seed syntax: decimal or `0x`-prefixed hex.
fn parse_seed(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map_err(|_| format!("--seed wants a u64 (decimal or 0x-hex), got `{raw}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_shared_flags_and_keeps_positionals() {
        let (args, pos) = ScenarioArgs::parse(&strings(&[
            "fetch",
            "--scenario",
            "scenarios/fetch.json",
            "--seed",
            "0xBEEF",
            "--json",
        ]))
        .unwrap();
        assert_eq!(pos, vec!["fetch".to_string()]);
        assert_eq!(args.scenario.as_deref(), Some("scenarios/fetch.json"));
        assert_eq!(args.seed, Some(0xBEEF));
        assert!(args.json && !args.trace);
    }

    #[test]
    fn equals_syntax_works() {
        let (args, _) = ScenarioArgs::parse(&strings(&["--scenario=x.json", "--seed=42"])).unwrap();
        assert_eq!(args.scenario.as_deref(), Some("x.json"));
        assert_eq!(args.seed, Some(42));
    }

    #[test]
    fn unknown_flag_is_an_error_naming_the_flag() {
        let err = ScenarioArgs::parse(&strings(&["--scenari", "x.json"])).unwrap_err();
        assert!(err.contains("--scenari"), "{err}");
        assert!(err.contains("accepted flags"), "{err}");
    }

    #[test]
    fn missing_value_and_bad_seed_are_errors() {
        assert!(ScenarioArgs::parse(&strings(&["--scenario"])).is_err());
        assert!(ScenarioArgs::parse(&strings(&["--seed", "pony"])).is_err());
    }

    #[test]
    fn seed_override_applies_to_the_builtin() {
        let (args, _) = ScenarioArgs::parse(&strings(&["--seed", "7"])).unwrap();
        let s = args.base_scenario("soak_quick").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.workload, Scenario::preset("soak_quick").unwrap().workload);
    }
}
