//! The expected verdicts of each workload (`benchmark/expected/*.json`)
//! and the check of an analysis against them.
//!
//! The expectations never come from a run of the analyzer under test.
//! For the paper kernels they restate the hand-written metadata of the
//! `benchsuite` crate (Table 2's `privatizable`/`hard` arrays, the
//! range kernels' `privatized`/`private_scalars`, the content kernels'
//! `flips`/`privatized`); [`derive_paper`] is that restatement and a
//! unit test keeps the committed files equal to it. For generated
//! programs they are the answers known by construction, one rule per
//! routine shape (see `corpus::write_unit`).

use privatize::LoopVerdict;
use serde::Value;
use std::collections::BTreeMap;

/// What one outermost loop must be judged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rule {
    /// Routine name, or for a shape rule the name without its digits.
    pub routine: String,
    pub var: String,
    /// Parallel (as is or after privatization), serial, or unchecked.
    pub parallel: Option<bool>,
    /// Arrays whose verdict must say privatizable.
    pub privatizable: Vec<String>,
    /// Arrays whose verdict must not.
    pub not_privatizable: Vec<String>,
    /// Arrays the loop's plan must privatize.
    pub privatized: Vec<String>,
    pub private_scalars: Vec<String>,
    pub reductions: Vec<String>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// Program name → rules naming a routine exactly.
    pub programs: BTreeMap<String, Vec<Rule>>,
    /// Rules for generated programs, by routine shape: the routine name
    /// with its trailing digits removed. Every outermost loop of a
    /// program without an entry in `programs` must match one.
    pub shapes: Vec<Rule>,
}

fn strs(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// The paper workloads' expectations, from the kernel metadata.
/// `all_passes` = the ∀-extension and the content pass are on.
pub fn derive_paper(all_passes: bool) -> Expected {
    let mut programs = BTreeMap::new();
    for (n, k) in benchsuite::kernels().iter().enumerate() {
        // Table 2: `privatizable` arrays privatize automatically; the
        // `hard` ones only under the ∀-extension, and until they do the
        // loop stays serial.
        let mut rule = Rule {
            routine: k.routine.to_string(),
            var: k.var.to_string(),
            privatizable: strs(k.privatizable),
            ..Rule::default()
        };
        if all_passes {
            rule.privatizable.extend(strs(k.hard));
            rule.parallel = Some(true);
        } else {
            rule.not_privatizable = strs(k.hard);
            rule.parallel = Some(k.hard.is_empty());
        }
        let name = format!("k{n:02}_{}", k.loop_label.replace('/', "_"));
        programs.insert(name, vec![rule]);
    }
    for (tag, routine, var, array, _) in benchsuite::fig1_kernels() {
        // The paper's implementation handles Fig. 1(b) and (c); (a)
        // needs the ∀-extension.
        let handled = all_passes || tag != "1a";
        let mut rule = Rule {
            routine: routine.to_string(),
            var: var.to_string(),
            ..Rule::default()
        };
        if handled {
            rule.privatizable = strs(&[array]);
        } else {
            rule.not_privatizable = strs(&[array]);
        }
        programs.insert(format!("fig{tag}"), vec![rule]);
    }
    for k in benchsuite::range_kernels() {
        // The value-range pass is on in both workloads.
        programs.insert(
            format!("range_{}", k.tag),
            vec![Rule {
                routine: k.routine.to_string(),
                var: k.var.to_string(),
                parallel: Some(true),
                privatized: strs(k.privatized),
                private_scalars: strs(k.private_scalars),
                ..Rule::default()
            }],
        );
    }
    for k in benchsuite::content_kernels() {
        // `flips` = serial without the content pass, parallel with it.
        // The two non-flip kernels are the demotion kernel (parallel
        // either way) and the negative twin (serial either way), told
        // apart by name: the metadata has no field for it.
        let parallel = if k.flips { all_passes } else { k.tag == "ckb" };
        programs.insert(
            format!("content_{}", k.tag),
            vec![Rule {
                routine: k.routine.to_string(),
                var: k.var.to_string(),
                parallel: Some(parallel),
                privatized: if k.flips && all_passes {
                    strs(k.privatized)
                } else {
                    Vec::new()
                },
                ..Rule::default()
            }],
        );
    }
    // The lint demos carry no verdict expectation.
    programs.insert("range_rdemo".to_string(), Vec::new());
    programs.insert("content_cdemo".to_string(), Vec::new());
    Expected {
        programs,
        shapes: Vec::new(),
    }
}

/// The generated workloads' expectations, by construction.
pub fn derive_generated(main_shape: &str) -> Expected {
    let shape = |routine: &str, var: &str, parallel: bool| Rule {
        routine: routine.to_string(),
        var: var.to_string(),
        parallel: Some(parallel),
        ..Rule::default()
    };
    Expected {
        programs: BTreeMap::new(),
        shapes: vec![
            Rule {
                privatized: strs(&["w"]),
                privatizable: strs(&["w"]),
                ..shape(main_shape, "i", true)
            },
            shape("fill", "j", true),
            shape("scan", "j", false),
            Rule {
                reductions: strs(&["s"]),
                ..shape("take", "j", true)
            },
        ],
    }
}

pub fn derive(workload: &str) -> Option<Expected> {
    Some(match workload {
        "paper_default" => derive_paper(false),
        "paper_allpasses" => derive_paper(true),
        "synth_cold" => derive_generated("synth"),
        "reuse_warm" => derive_generated("reuse"),
        _ => return None,
    })
}

fn list(items: &[String]) -> Value {
    Value::Array(items.iter().map(|s| Value::Str(s.clone())).collect())
}

fn rule_json(r: &Rule) -> Value {
    Value::Object(vec![
        ("routine".to_string(), Value::Str(r.routine.clone())),
        ("var".to_string(), Value::Str(r.var.clone())),
        (
            "parallel".to_string(),
            r.parallel.map_or(Value::Null, Value::Bool),
        ),
        ("privatizable".to_string(), list(&r.privatizable)),
        ("not_privatizable".to_string(), list(&r.not_privatizable)),
        ("privatized".to_string(), list(&r.privatized)),
        ("private_scalars".to_string(), list(&r.private_scalars)),
        ("reductions".to_string(), list(&r.reductions)),
    ])
}

impl Expected {
    pub fn to_json(&self) -> String {
        let doc = Value::Object(vec![
            (
                "programs".to_string(),
                Value::Object(
                    self.programs
                        .iter()
                        .map(|(name, rules)| {
                            (
                                name.clone(),
                                Value::Array(rules.iter().map(rule_json).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "shapes".to_string(),
                Value::Array(self.shapes.iter().map(rule_json).collect()),
            ),
        ]);
        let mut text =
            serde_json::to_string_pretty(&doc).expect("a value tree of strings serializes");
        text.push('\n');
        text
    }

    pub fn from_json(text: &str) -> Result<Expected, String> {
        let doc = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
        let rules = |v: &Value| -> Result<Vec<Rule>, String> {
            v.as_array()
                .ok_or("rules must be an array")?
                .iter()
                .map(parse_rule)
                .collect()
        };
        let mut programs = BTreeMap::new();
        for (name, v) in doc
            .get("programs")
            .and_then(Value::as_object)
            .ok_or("missing \"programs\" object")?
        {
            programs.insert(name.clone(), rules(v)?);
        }
        let shapes = rules(doc.get("shapes").ok_or("missing \"shapes\" array")?)?;
        Ok(Expected { programs, shapes })
    }
}

fn parse_rule(v: &Value) -> Result<Rule, String> {
    let text = |key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("rule needs a string {key:?}"))
    };
    let names = |key: &str| -> Result<Vec<String>, String> {
        v.get(key)
            .and_then(Value::as_array)
            .ok_or(format!("rule needs an array {key:?}"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or(format!("{key:?} holds names"))
            })
            .collect()
    };
    let parallel = match v.get("parallel") {
        None | Some(Value::Null) => None,
        Some(b) => Some(b.as_bool().ok_or("\"parallel\" is true, false or null")?),
    };
    Ok(Rule {
        routine: text("routine")?,
        var: text("var")?,
        parallel,
        privatizable: names("privatizable")?,
        not_privatizable: names("not_privatizable")?,
        privatized: names("privatized")?,
        private_scalars: names("private_scalars")?,
        reductions: names("reductions")?,
    })
}

/// A routine's shape: its name without trailing digits.
fn shape_of(routine: &str) -> &str {
    routine.trim_end_matches(|c: char| c.is_ascii_digit())
}

fn check_rule(program: &str, rule: &Rule, v: &LoopVerdict, out: &mut Vec<String>) {
    let at = format!("{program}: {}/{}", v.routine, v.var);
    let parallel = v.parallel_as_is || v.parallel_after_privatization;
    if rule.parallel.is_some_and(|want| want != parallel) {
        out.push(format!(
            "{at}: judged {}, expected {}",
            if parallel { "parallel" } else { "serial" },
            if parallel { "serial" } else { "parallel" }
        ));
    }
    let privatizable = |a: &String| v.arrays.iter().any(|x| &x.array == a && x.privatizable);
    for a in rule.privatizable.iter().filter(|a| !privatizable(a)) {
        out.push(format!("{at}: array {a} not judged privatizable"));
    }
    for a in rule.not_privatizable.iter().filter(|a| privatizable(a)) {
        out.push(format!("{at}: array {a} judged privatizable, expected not"));
    }
    for (what, want, got) in [
        ("privatized array", &rule.privatized, &v.privatized),
        ("private scalar", &rule.private_scalars, &v.private_scalars),
        ("reduction", &rule.reductions, &v.reductions),
    ] {
        for name in want.iter().filter(|n| !got.contains(n)) {
            out.push(format!("{at}: {what} {name} missing from the verdict"));
        }
    }
}

/// Checks one program's verdicts; returns one line per disagreement.
pub fn check(expected: &Expected, program: &str, verdicts: &[LoopVerdict]) -> Vec<String> {
    let mut out = Vec::new();
    let outermost = |routine: &str, var: &str| {
        verdicts
            .iter()
            .filter(|v| v.routine == routine && v.var == var)
            .min_by_key(|v| v.depth)
    };
    match expected.programs.get(program) {
        Some(rules) => {
            for rule in rules {
                match outermost(&rule.routine, &rule.var) {
                    Some(v) => check_rule(program, rule, v, &mut out),
                    None => out.push(format!(
                        "{program}: no verdict for loop {}/{}",
                        rule.routine, rule.var
                    )),
                }
            }
        }
        None if expected.shapes.is_empty() => {
            out.push(format!("{program}: no expectation for this program"));
        }
        None => {
            for v in verdicts.iter().filter(|v| v.depth == 0) {
                match expected
                    .shapes
                    .iter()
                    .find(|r| r.routine == shape_of(&v.routine) && r.var == v.var)
                {
                    Some(rule) => check_rule(program, rule, v, &mut out),
                    None => out.push(format!(
                        "{program}: loop {}/{} matches no expected shape",
                        v.routine, v.var
                    )),
                }
            }
            if verdicts.is_empty() {
                out.push(format!("{program}: no verdicts at all"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use panorama::driver;

    fn committed(workload: &str) -> Expected {
        let path = format!("{}/expected/{workload}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Expected::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn verdicts(w: &corpus::Workload, p: &corpus::Prog) -> Vec<LoopVerdict> {
        let req = driver::Request {
            opts: w.opts,
            ..driver::Request::new(&p.source)
        };
        driver::run(&req).unwrap().analysis.verdicts
    }

    /// The committed files are the metadata's restatement, byte for byte.
    #[test]
    fn committed_files_equal_the_derivation() {
        for (name, _) in crate::metrics::WORKLOADS {
            let derived = derive(name).unwrap();
            let path = format!("{}/expected/{name}.json", env!("CARGO_MANIFEST_DIR"));
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                derived.to_json(),
                "{path} is stale: run `panobench --write-expected`"
            );
            assert_eq!(committed(name), derived);
        }
    }

    #[test]
    fn the_analyzer_meets_every_expectation() {
        for seed in [1, 2] {
            for (name, _) in crate::metrics::WORKLOADS {
                let w = corpus::build(name, seed).unwrap();
                let expected = committed(name);
                for p in &w.programs {
                    let bad = check(&expected, &p.name, &verdicts(&w, p));
                    assert!(bad.is_empty(), "seed {seed}: {bad:#?}");
                }
            }
        }
    }

    /// The gate must be able to fail: a deliberately wrong expectation
    /// is reported, for a named program and for a shape.
    #[test]
    fn a_wrong_expectation_is_caught() {
        let w = corpus::build("paper_default", 1).unwrap();
        let mut expected = committed("paper_default");
        let rule = &mut expected.programs.get_mut("k00_nlfilt_300").unwrap()[0];
        rule.parallel = Some(false);
        rule.not_privatizable.push("p1".to_string());
        let p = &w.programs[0];
        assert_eq!(p.name, "k00_nlfilt_300");
        let bad = check(&expected, &p.name, &verdicts(&w, p));
        assert_eq!(bad.len(), 2, "{bad:#?}");
        assert!(
            bad[0].contains("judged parallel, expected serial"),
            "{}",
            bad[0]
        );

        let w = corpus::build("synth_cold", 1).unwrap();
        let mut expected = committed("synth_cold");
        expected.shapes[1].parallel = Some(false); // every fill loop
        let p = &w.programs[0];
        let bad = check(&expected, &p.name, &verdicts(&w, p));
        assert!(
            bad.len() >= 4 && bad.iter().all(|b| b.contains(": fill")),
            "{bad:#?}"
        );

        // A loop nobody described, a missing loop, an unknown program.
        expected.shapes.remove(3);
        assert!(check(&expected, &p.name, &verdicts(&w, p))
            .iter()
            .any(|b| b.contains("matches no expected shape")));
        let expected = committed("paper_default");
        assert_eq!(check(&expected, "k00_nlfilt_300", &[]).len(), 1);
        assert_eq!(check(&expected, "stranger", &[]).len(), 1);
    }

    #[test]
    fn json_round_trips() {
        for (name, _) in crate::metrics::WORKLOADS {
            let e = derive(name).unwrap();
            assert_eq!(Expected::from_json(&e.to_json()).unwrap(), e);
        }
        assert!(Expected::from_json("{}").is_err());
        assert!(
            Expected::from_json(r#"{"programs": {"p": [{"routine": 1}]}, "shapes": []}"#).is_err()
        );
    }
}
