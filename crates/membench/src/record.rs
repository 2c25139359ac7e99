//! Measurement records produced by the benchmark suite, plus a small
//! hand-rolled CSV codec (no extra dependencies).
//!
//! The paper's benchmark (§IV-A1) executes, for every possible number of
//! computing cores: 1) computations alone; 2) communications alone; 3) both
//! in parallel — for a given placement of computation data and
//! communication data on NUMA nodes. One [`SweepPoint`] holds the four
//! bandwidths of one core count; one [`PlacementSweep`] holds a full core
//! sweep for one `(m_comp, m_comm)` placement; one [`PlatformSweep`] holds
//! every placement combination of a machine.

use mc_topology::NumaId;

/// One of the four bandwidth columns of a [`SweepPoint`] — used by sweep
/// validation (to report *which* measurement is broken) and by the fault
/// injector (to choose *what* to perturb).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SweepColumn {
    /// Computations-alone bandwidth.
    CompAlone,
    /// Communications-alone bandwidth.
    CommAlone,
    /// Computation bandwidth of the parallel phase.
    CompPar,
    /// Communication bandwidth of the parallel phase.
    CommPar,
}

impl SweepColumn {
    /// Every column, in record order.
    pub const ALL: [SweepColumn; 4] = [
        SweepColumn::CompAlone,
        SweepColumn::CommAlone,
        SweepColumn::CompPar,
        SweepColumn::CommPar,
    ];

    /// Read this column of a point.
    pub fn get(self, point: &SweepPoint) -> f64 {
        match self {
            SweepColumn::CompAlone => point.comp_alone,
            SweepColumn::CommAlone => point.comm_alone,
            SweepColumn::CompPar => point.comp_par,
            SweepColumn::CommPar => point.comm_par,
        }
    }

    /// Overwrite this column of a point.
    pub fn set(self, point: &mut SweepPoint, value: f64) {
        match self {
            SweepColumn::CompAlone => point.comp_alone = value,
            SweepColumn::CommAlone => point.comm_alone = value,
            SweepColumn::CompPar => point.comp_par = value,
            SweepColumn::CommPar => point.comm_par = value,
        }
    }
}

impl std::fmt::Display for SweepColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SweepColumn::CompAlone => "comp_alone",
            SweepColumn::CommAlone => "comm_alone",
            SweepColumn::CompPar => "comp_par",
            SweepColumn::CommPar => "comm_par",
        })
    }
}

/// Bandwidths measured for one number of computing cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Number of computing cores `n`.
    pub n_cores: usize,
    /// Memory bandwidth of computations executed alone, GB/s.
    pub comp_alone: f64,
    /// Network bandwidth of communications executed alone, GB/s.
    pub comm_alone: f64,
    /// Memory bandwidth of computations with communications in parallel.
    pub comp_par: f64,
    /// Network bandwidth of communications with computations in parallel.
    pub comm_par: f64,
}

impl SweepPoint {
    /// Total (stacked) bandwidth of the parallel phase — the quantity
    /// plotted in the paper's Fig. 2.
    pub fn total_par(&self) -> f64 {
        self.comp_par + self.comm_par
    }
}

/// A full core-count sweep for one data placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSweep {
    /// NUMA node holding computation data (the paper's `m_comp`).
    pub m_comp: NumaId,
    /// NUMA node holding communication data (the paper's `m_comm`).
    pub m_comm: NumaId,
    /// One point per core count, ascending `n_cores` starting at 1.
    pub points: Vec<SweepPoint>,
}

impl PlacementSweep {
    /// The point for `n` computing cores, if measured.
    pub fn at(&self, n: usize) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.n_cores == n)
    }

    /// Largest measured core count.
    pub fn max_cores(&self) -> usize {
        self.points.iter().map(|p| p.n_cores).max().unwrap_or(0)
    }

    /// Communications-alone bandwidth averaged over the sweep (it does not
    /// depend on the core count, so averaging suppresses measurement
    /// noise).
    pub fn comm_alone_mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.comm_alone).sum::<f64>() / self.points.len() as f64
    }
}

/// Every placement sweep of one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSweep {
    /// Platform name (Table I).
    pub platform: String,
    /// One sweep per `(m_comp, m_comm)` combination, in
    /// [`mc_topology::MachineTopology::placement_combinations`] order.
    pub sweeps: Vec<PlacementSweep>,
}

impl PlatformSweep {
    /// The sweep for a given placement.
    pub fn placement(&self, m_comp: NumaId, m_comm: NumaId) -> Option<&PlacementSweep> {
        self.sweeps
            .iter()
            .find(|s| s.m_comp == m_comp && s.m_comm == m_comm)
    }

    /// Serialise to CSV (`platform,m_comp,m_comm,n,comp_alone,comm_alone,
    /// comp_par,comm_par`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "platform,m_comp,m_comm,n_cores,comp_alone,comm_alone,comp_par,comm_par\n",
        );
        for s in &self.sweeps {
            for p in &s.points {
                out.push_str(&format!(
                    "{},{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
                    self.platform,
                    s.m_comp.0,
                    s.m_comm.0,
                    p.n_cores,
                    p.comp_alone,
                    p.comm_alone,
                    p.comp_par,
                    p.comm_par
                ));
            }
        }
        out
    }

    /// Parse the CSV produced by [`PlatformSweep::to_csv`].
    pub fn from_csv(text: &str) -> Result<PlatformSweep, CsvError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or(CsvError::Empty)?;
        if !header.starts_with("platform,m_comp,m_comm,n_cores") {
            return Err(CsvError::BadHeader);
        }
        let mut platform = String::new();
        let mut sweeps: Vec<PlacementSweep> = Vec::new();
        for (lineno, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 8 {
                return Err(CsvError::BadRow(lineno + 2));
            }
            // Bandwidth cells must be finite *here*: "NaN" and "inf" parse
            // as Ok(f64) and would otherwise surface much later, inside
            // calibrate(), with the file/line context lost.
            let parse_f = |s: &str, column: SweepColumn| {
                let v = s.parse::<f64>().map_err(|_| CsvError::BadRow(lineno + 2))?;
                if !v.is_finite() {
                    return Err(CsvError::NonFinite {
                        line: lineno + 2,
                        column,
                    });
                }
                Ok(v)
            };
            let parse_u = |s: &str| s.parse::<u64>().map_err(|_| CsvError::BadRow(lineno + 2));
            if platform.is_empty() {
                platform = fields[0].to_string();
            } else if platform != fields[0] {
                return Err(CsvError::MixedPlatforms);
            }
            let m_comp = NumaId::new(parse_u(fields[1])? as u16);
            let m_comm = NumaId::new(parse_u(fields[2])? as u16);
            let point = SweepPoint {
                n_cores: parse_u(fields[3])? as usize,
                comp_alone: parse_f(fields[4], SweepColumn::CompAlone)?,
                comm_alone: parse_f(fields[5], SweepColumn::CommAlone)?,
                comp_par: parse_f(fields[6], SweepColumn::CompPar)?,
                comm_par: parse_f(fields[7], SweepColumn::CommPar)?,
            };
            match sweeps
                .iter_mut()
                .find(|s| s.m_comp == m_comp && s.m_comm == m_comm)
            {
                Some(s) => s.points.push(point),
                None => sweeps.push(PlacementSweep {
                    m_comp,
                    m_comm,
                    points: vec![point],
                }),
            }
        }
        Ok(PlatformSweep { platform, sweeps })
    }
}

/// CSV parsing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvError {
    /// No header line.
    Empty,
    /// Unexpected header.
    BadHeader,
    /// Malformed row (1-based line number).
    BadRow(usize),
    /// A bandwidth cell parsed but is NaN or infinite.
    NonFinite {
        /// 1-based line number of the offending row.
        line: usize,
        /// Which bandwidth column held the non-finite value.
        column: SweepColumn,
    },
    /// Rows from several platforms in one file.
    MixedPlatforms,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "empty CSV"),
            CsvError::BadHeader => write!(f, "unexpected CSV header"),
            CsvError::BadRow(n) => write!(f, "malformed CSV row at line {n}"),
            CsvError::NonFinite { line, column } => {
                write!(f, "non-finite {column} value at CSV line {line}")
            }
            CsvError::MixedPlatforms => write!(f, "CSV mixes several platforms"),
        }
    }
}

impl std::error::Error for CsvError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PlatformSweep {
        PlatformSweep {
            platform: "henri".into(),
            sweeps: vec![PlacementSweep {
                m_comp: NumaId::new(0),
                m_comm: NumaId::new(1),
                points: vec![
                    SweepPoint {
                        n_cores: 1,
                        comp_alone: 5.6,
                        comm_alone: 11.2,
                        comp_par: 5.6,
                        comm_par: 11.2,
                    },
                    SweepPoint {
                        n_cores: 2,
                        comp_alone: 11.2,
                        comm_alone: 11.3,
                        comp_par: 11.1,
                        comm_par: 11.0,
                    },
                ],
            }],
        }
    }

    #[test]
    fn csv_round_trip() {
        let s = sample();
        let parsed = PlatformSweep::from_csv(&s.to_csv()).unwrap();
        assert_eq!(parsed.platform, "henri");
        assert_eq!(parsed.sweeps.len(), 1);
        assert_eq!(parsed.sweeps[0].points.len(), 2);
        let p = parsed.sweeps[0].at(2).unwrap();
        assert!((p.comm_par - 11.0).abs() < 1e-6);
    }

    #[test]
    fn total_par_is_stacked() {
        let p = sample().sweeps[0].points[1];
        assert!((p.total_par() - 22.1).abs() < 1e-9);
    }

    #[test]
    fn comm_alone_mean_averages() {
        let s = sample();
        assert!((s.sweeps[0].comm_alone_mean() - 11.25).abs() < 1e-9);
    }

    #[test]
    fn placement_lookup() {
        let s = sample();
        assert!(s.placement(NumaId::new(0), NumaId::new(1)).is_some());
        assert!(s.placement(NumaId::new(1), NumaId::new(0)).is_none());
    }

    #[test]
    fn from_csv_rejects_garbage() {
        assert_eq!(PlatformSweep::from_csv(""), Err(CsvError::Empty));
        assert_eq!(
            PlatformSweep::from_csv("nope\n1,2,3"),
            Err(CsvError::BadHeader)
        );
        let bad = "platform,m_comp,m_comm,n_cores,a,b,c,d\nhenri,0,0,xx,1,2,3,4\n";
        assert_eq!(PlatformSweep::from_csv(bad), Err(CsvError::BadRow(2)));
    }

    #[test]
    fn from_csv_rejects_non_finite_cells_with_location() {
        let nan = "platform,m_comp,m_comm,n_cores,a,b,c,d\n\
                   henri,0,0,1,1,2,3,4\n\
                   henri,0,0,2,1,NaN,3,4\n";
        assert_eq!(
            PlatformSweep::from_csv(nan),
            Err(CsvError::NonFinite {
                line: 3,
                column: SweepColumn::CommAlone,
            })
        );
        let inf = "platform,m_comp,m_comm,n_cores,a,b,c,d\n\
                   henri,0,0,1,1,2,3,-inf\n";
        assert_eq!(
            PlatformSweep::from_csv(inf),
            Err(CsvError::NonFinite {
                line: 2,
                column: SweepColumn::CommPar,
            })
        );
        let msg = PlatformSweep::from_csv(nan).unwrap_err().to_string();
        assert!(msg.contains("comm_alone"), "{msg}");
        assert!(msg.contains("line 3"), "{msg}");
    }

    #[test]
    fn from_csv_rejects_mixed_platforms() {
        let text = "platform,m_comp,m_comm,n_cores,a,b,c,d\n\
                    henri,0,0,1,1,2,3,4\n\
                    dahu,0,0,1,1,2,3,4\n";
        assert_eq!(PlatformSweep::from_csv(text), Err(CsvError::MixedPlatforms));
    }

    #[test]
    fn max_cores_and_missing_at() {
        let s = sample();
        assert_eq!(s.sweeps[0].max_cores(), 2);
        assert!(s.sweeps[0].at(7).is_none());
    }
}
