//! Command-line scale configuration of the `all` binary.

use authsearch_crypto::keys::PAPER_KEY_BITS;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fraction of the WSJ corpus (1.0 = the paper's n = 172,961).
    pub frac: f64,
    /// Queries per workload data point (the paper uses 1000 synthetic /
    /// 100 TREC).
    pub queries: usize,
    /// RSA modulus size (paper: 1024).
    pub key_bits: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            frac: 0.12,
            queries: 200,
            key_bits: PAPER_KEY_BITS,
        }
    }
}

impl Scale {
    /// Parse `--scale <f> | --full | --queries <n> | --key-bits <b>` from
    /// the process arguments; unknown flags abort with usage help.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            eprintln!("usage: [--scale <frac>] [--full] [--queries <n>] [--key-bits <b>]");
            std::process::exit(2);
        })
    }

    /// Parse from an argument slice (testable core of [`Scale::from_args`]).
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        let mut scale = Scale::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => scale.frac = 1.0,
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    scale.frac = v
                        .parse::<f64>()
                        .map_err(|_| format!("bad --scale value {v}"))?;
                    if !(scale.frac > 0.0 && scale.frac <= 1.0) {
                        return Err(format!("--scale must be in (0, 1], got {v}"));
                    }
                }
                "--queries" => {
                    let v = it.next().ok_or("--queries needs a value")?;
                    scale.queries = v
                        .parse::<usize>()
                        .map_err(|_| format!("bad --queries value {v}"))?;
                    if scale.queries == 0 {
                        return Err("--queries must be positive".into());
                    }
                }
                "--key-bits" => {
                    let v = it.next().ok_or("--key-bits needs a value")?;
                    scale.key_bits = v
                        .parse::<usize>()
                        .map_err(|_| format!("bad --key-bits value {v}"))?;
                    if scale.key_bits < 384 {
                        return Err("--key-bits must be at least 384".into());
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(scale)
    }

    /// Number of documents at this scale.
    pub fn num_docs(&self) -> usize {
        (authsearch_corpus::synthetic::WSJ_NUM_DOCS as f64 * self.frac).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Result<Scale, String> {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Scale::parse(&owned)
    }

    #[test]
    fn defaults() {
        let scale = s(&[]).unwrap();
        assert_eq!(scale, Scale::default());
    }

    #[test]
    fn full_flag() {
        assert_eq!(s(&["--full"]).unwrap().frac, 1.0);
        assert_eq!(s(&["--full"]).unwrap().num_docs(), 172_961);
    }

    #[test]
    fn explicit_values() {
        let scale = s(&["--scale", "0.5", "--queries", "50", "--key-bits", "512"]).unwrap();
        assert_eq!(scale.frac, 0.5);
        assert_eq!(scale.queries, 50);
        assert_eq!(scale.key_bits, 512);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(s(&["--scale"]).is_err());
        assert!(s(&["--scale", "2.0"]).is_err());
        assert!(s(&["--scale", "zero"]).is_err());
        assert!(s(&["--queries", "0"]).is_err());
        assert!(s(&["--key-bits", "128"]).is_err());
        assert!(s(&["--bogus"]).is_err());
    }
}
