//! The host fingerprint every result records, and the refusal to compare
//! results from different fingerprints.

/// What a result's numbers depend on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub fields: Vec<(&'static str, String)>,
}

impl Fingerprint {
    pub fn of_this_host() -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or(String::from("unknown"), |(_, v)| v.trim().to_string())
        };
        let mut flags: Vec<&str> = Vec::new();
        let all_flags = field("flags");
        for flag in all_flags.split_whitespace() {
            if flag == "sha_ni" || flag.starts_with("avx512") {
                flags.push(flag);
            }
        }
        flags.sort_unstable();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or(String::from("unknown"), |s| s.trim().to_string());
        Fingerprint {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("cpu_model", field("model name")),
                ("cpu_flags", flags.join(" ")),
                ("kernel", kernel),
                ("rustc", env!("E2E_RUSTC_VERSION").to_string()),
                ("target_cpu", env!("E2E_TARGET_CPU").to_string()),
            ],
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", escape(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Parses the `"fingerprint":{...}` object out of a result file.
    pub fn from_result(text: &str) -> Option<Fingerprint> {
        let start = text.find("\"fingerprint\":{")? + "\"fingerprint\":{".len();
        let body = &text[start..start + text[start..].find('}')?];
        let mut fields = Vec::new();
        for key in [
            "nproc",
            "cpu_model",
            "cpu_flags",
            "kernel",
            "rustc",
            "target_cpu",
        ] {
            let tag = format!("\"{key}\":\"");
            let at = body.find(&tag)? + tag.len();
            let end = body[at..].find('"')?;
            fields.push((key, body[at..at + end].to_string()));
        }
        Some(Fingerprint { fields })
    }

    /// The fields on which two fingerprints differ, by name.
    pub fn differences(&self, other: &Fingerprint) -> Vec<String> {
        self.fields
            .iter()
            .zip(&other.fields)
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, b)| format!("{}: `{}` vs `{}`", a.0, a.1, b.1))
            .collect()
    }
}

/// The host's CPU time counters (`/proc/stat`): `(steal, total)` ticks.
/// On a virtual machine, steal is time the hypervisor gave this guest's
/// CPUs to someone else — noise no benchmark design removes, so runs
/// report it.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let v: Vec<u64> = line
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    Some((*v.get(7)?, v.iter().take(8).sum()))
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_round_trip_and_name_their_differences() {
        let here = Fingerprint::of_this_host();
        let text = format!("{{\"workload\":\"x\",\"fingerprint\":{}}}", here.to_json());
        let parsed = Fingerprint::from_result(&text).expect("parses");
        assert_eq!(parsed, here);
        assert!(here.differences(&parsed).is_empty());
        let mut other = parsed.clone();
        other.fields[0].1 = "64".into();
        let diff = here.differences(&other);
        assert_eq!(diff.len(), 1);
        assert!(diff[0].starts_with("nproc:"));
    }
}
