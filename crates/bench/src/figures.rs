//! Figure generators: Fig. 1 (machine diagram), Fig. 2 (stacked
//! bandwidth), Figs. 3–8 (per-platform placement grids with model
//! predictions).

use mc_membench::{calibration_placements, sweep_platform_parallel, BenchConfig, PlatformSweep};
use mc_memsim::engine::{Activity, Engine};
use mc_memsim::fabric::{Fabric, StreamSpec};
use mc_model::ContentionModel;
use mc_model::Mape;
use mc_model::McError;
use mc_netsim::NicModel;
use mc_topology::{platforms, Platform};
use mc_viz::{
    ChartGrid, DualAxisChart, Heatmap, MarkedPoint, Series, SeriesStyle, StackedData,
    TopologySketch, YAxis, COMM_COLOR, COMP_COLOR,
};

use crate::tables::calibrated_model;

/// Which platform each figure number shows (paper §IV-B).
pub const FIGURE_PLATFORMS: [(u8, &str); 6] = [
    (3, "henri"),
    (4, "henri-subnuma"),
    (5, "diablo"),
    (6, "occigen"),
    (7, "pyxis"),
    (8, "dahu"),
];

/// Fig. 1: ASCII machine diagrams of every platform (the paper draws one
/// generic machine; we render each testbed member).
pub fn figure1() -> String {
    let mut out = String::from("FIGURE 1 — MACHINE TOPOLOGIES\n\n");
    for p in platforms::all() {
        let topo = &p.topology;
        let sketch = TopologySketch {
            name: topo.summary(),
            sockets: topo.sockets.len(),
            cores_per_socket: topo.cores_per_socket(),
            numa_per_socket: topo.numa_per_socket(),
            nic_socket: topo.nic.socket.index(),
            network: topo.nic.tech.to_string(),
            bus: topo.links[0].tech.to_string(),
        };
        out.push_str(&mc_viz::topology_diagram(&sketch));
        out.push('\n');
    }
    out
}

/// Fig. 2 data: the stacked view of the henri-subnuma local placement,
/// with the model's calibration points marked.
pub fn figure2(config: BenchConfig) -> Result<StackedData, McError> {
    let platform = platforms::henri_subnuma();
    let sweep = sweep_platform_parallel(&platform, config);
    let model = calibrated_model(&platform, &sweep)?;
    let ((lc, lm), _) = calibration_placements(&platform);
    let local = sweep.placement(lc, lm).ok_or(McError::MissingPlacement {
        m_comp: lc,
        m_comm: lm,
    })?;

    let p = *model.local().params();
    Ok(StackedData {
        title: format!("{} — stacked bandwidths, local placement", platform.name()),
        n_cores: local.points.iter().map(|pt| pt.n_cores as f64).collect(),
        comp_par: local.points.iter().map(|pt| pt.comp_par).collect(),
        comm_par: local.points.iter().map(|pt| pt.comm_par).collect(),
        comp_alone: local.points.iter().map(|pt| pt.comp_alone).collect(),
        marks: vec![
            MarkedPoint {
                n: 1.0,
                value: p.b_comp_seq,
                label: "(1, Bcomp_seq)".into(),
            },
            MarkedPoint {
                n: p.n_max_par as f64,
                value: p.t_max_par,
                label: "(Nmax_par, Tmax_par)".into(),
            },
            MarkedPoint {
                n: p.n_max_seq as f64,
                value: p.t_max_seq,
                label: "(Nmax_seq, Tmax_seq)".into(),
            },
            MarkedPoint {
                n: p.n_max_seq as f64,
                value: p.t_max2_par,
                label: "(Nmax_seq, Tmax2_par)".into(),
            },
        ],
    })
}

/// Build one subplot: measurements (markers) and model predictions (lines)
/// for one placement.
fn subplot(
    model: &ContentionModel,
    sweep: &PlatformSweep,
    m_comp: mc_topology::NumaId,
    m_comm: mc_topology::NumaId,
) -> Result<DualAxisChart, McError> {
    let placement = sweep
        .placement(m_comp, m_comm)
        .ok_or(McError::MissingPlacement { m_comp, m_comm })?;
    let xs = |f: &dyn Fn(&mc_membench::SweepPoint) -> f64| -> Vec<(f64, f64)> {
        placement
            .points
            .iter()
            .map(|pt| (pt.n_cores as f64, f(pt)))
            .collect()
    };
    let n_max = placement.max_cores();
    let model_par: Vec<(f64, f64, f64)> = (1..=n_max)
        .map(|n| {
            let pr = model.predict(n, m_comp, m_comm);
            (n as f64, pr.comm, pr.comp)
        })
        .collect();
    let model_alone: Vec<(f64, f64, f64)> = (1..=n_max)
        .map(|n| {
            let pr = model.predict_alone(n, m_comp, m_comm);
            (n as f64, pr.comm, pr.comp)
        })
        .collect();

    let series = vec![
        Series {
            label: "comm alone (measured)".into(),
            points: xs(&|pt| pt.comm_alone),
            color: COMM_COLOR.into(),
            style: SeriesStyle::Circles,
            axis: YAxis::Left,
        },
        Series {
            label: "comm parallel (measured)".into(),
            points: xs(&|pt| pt.comm_par),
            color: COMM_COLOR.into(),
            style: SeriesStyle::Triangles,
            axis: YAxis::Left,
        },
        Series {
            label: "comm parallel (model)".into(),
            points: model_par.iter().map(|&(n, c, _)| (n, c)).collect(),
            color: COMM_COLOR.into(),
            style: SeriesStyle::Line,
            axis: YAxis::Left,
        },
        Series {
            label: "comm alone (model)".into(),
            points: model_alone.iter().map(|&(n, c, _)| (n, c)).collect(),
            color: COMM_COLOR.into(),
            style: SeriesStyle::DashedLine,
            axis: YAxis::Left,
        },
        Series {
            label: "comp alone (measured)".into(),
            points: xs(&|pt| pt.comp_alone),
            color: COMP_COLOR.into(),
            style: SeriesStyle::Circles,
            axis: YAxis::Right,
        },
        Series {
            label: "comp parallel (measured)".into(),
            points: xs(&|pt| pt.comp_par),
            color: COMP_COLOR.into(),
            style: SeriesStyle::Triangles,
            axis: YAxis::Right,
        },
        Series {
            label: "comp parallel (model)".into(),
            points: model_par.iter().map(|&(n, _, c)| (n, c)).collect(),
            color: COMP_COLOR.into(),
            style: SeriesStyle::Line,
            axis: YAxis::Right,
        },
        Series {
            label: "comp alone (model)".into(),
            points: model_alone.iter().map(|&(n, _, c)| (n, c)).collect(),
            color: COMP_COLOR.into(),
            style: SeriesStyle::DashedLine,
            axis: YAxis::Right,
        },
    ];

    Ok(DualAxisChart {
        title: format!("comp data: {m_comp} — comm data: {m_comm}"),
        x_label: "Number of computing cores".into(),
        left_label: "Network bandwidth (GB/s)".into(),
        right_label: "Memory bandwidth (GB/s)".into(),
        series,
        highlighted: model.is_sample_placement(m_comp, m_comm),
        legend: false,
    })
}

/// Build the full placement grid of one platform (one of Figs. 3–8),
/// returning the grid plus the underlying sweep (for CSV export).
pub fn placement_grid(
    platform: &Platform,
    config: BenchConfig,
) -> Result<(ChartGrid, PlatformSweep), McError> {
    let sweep = sweep_platform_parallel(platform, config);
    let model = calibrated_model(platform, &sweep)?;
    let charts = platform
        .topology
        .placement_combinations()
        .into_iter()
        .map(|(m_comp, m_comm)| subplot(&model, &sweep, m_comp, m_comm))
        .collect::<Result<Vec<_>, _>>()?;
    let grid = ChartGrid {
        title: format!(
            "{} ({}, {})",
            platform.name(),
            platform.topology.sockets[0].processor,
            platform.topology.nic.tech
        ),
        charts,
        cols: platform.topology.numa_count(),
    };
    Ok((grid, sweep))
}

/// Extra (extended-report style): the per-placement communication
/// prediction-error matrix a platform's Table II row aggregates away.
/// Rows are communication-data placements, columns computation-data
/// placements — the layout of Figs. 3-8.
pub fn error_heatmap(platform: &Platform, config: BenchConfig) -> Result<Heatmap, McError> {
    let sweep = sweep_platform_parallel(platform, config);
    let model = calibrated_model(platform, &sweep)?;
    let nodes = platform.topology.numa_count();
    let mut values = Vec::with_capacity(nodes * nodes);
    for (m_comp, m_comm) in platform.topology.placement_combinations() {
        let placement = sweep
            .placement(m_comp, m_comm)
            .ok_or(McError::MissingPlacement { m_comp, m_comm })?;
        let mut mape = Mape::default();
        for pt in &placement.points {
            mape.add(pt.comm_par, model.predict(pt.n_cores, m_comp, m_comm).comm);
        }
        values.push(mape.percent_or_nan());
    }
    Ok(Heatmap {
        title: format!(
            "{} — communication prediction error per placement",
            platform.name()
        ),
        col_labels: (0..nodes).map(|i| format!("comp numa{i}")).collect(),
        row_labels: (0..nodes).map(|i| format!("comm numa{i}")).collect(),
        values,
        unit: "%".into(),
    })
}

/// Extra: a Gantt view of an overlapped iterative run on the MPI
/// simulator — compute iterations against the halo transfers that hide
/// behind them (cf. the `overlap_planner` example).
pub fn overlap_gantt() -> mc_viz::Gantt {
    use mc_mpisim::{Tag, World};
    let platform = platforms::henri_subnuma();
    let numa = mc_topology::NumaId::new(0);
    let comm_numa = mc_topology::NumaId::new(1);
    let mut world = World::pair(&platform);
    for iter in 0..4u32 {
        let recv = world
            .irecv(0, 1, comm_numa, 512 << 20, Tag(iter))
            .expect("post receive");
        world
            .isend(1, 0, comm_numa, 512 << 20, Tag(iter))
            .expect("post send");
        let job = world
            .start_compute(0, numa, 17, 512 << 20)
            .expect("start compute");
        world.wait_job(job).expect("compute completes");
        world.wait(recv).expect("halo arrives");
    }
    let compute_bars = world
        .job_history()
        .iter()
        .enumerate()
        .map(|(i, j)| mc_viz::GanttBar {
            t0: j.started_at,
            t1: j.finished_at.unwrap_or(j.started_at),
            color: COMP_COLOR.into(),
            label: format!("iter {i}"),
        })
        .collect();
    let transfer_bars = world
        .transfer_history()
        .iter()
        .map(|t| mc_viz::GanttBar {
            t0: t.matched_at,
            t1: t.finished_at.unwrap_or(t.matched_at),
            color: COMM_COLOR.into(),
            label: format!("{} MiB", (t.bytes / (1 << 20) as f64) as u64),
        })
        .collect();
    mc_viz::Gantt {
        title: "henri-subnuma — 17-core compute iterations overlapping 512 MiB halo transfers"
            .into(),
        rows: vec![
            mc_viz::GanttRow {
                label: "rank 0 compute".into(),
                bars: compute_bars,
            },
            mc_viz::GanttRow {
                label: "network 1 -> 0".into(),
                bars: transfer_bars,
            },
        ],
    }
}

/// Extra (not in the paper): the bandwidth timeline of one event-driven
/// run on henri — 17 compute kernels starting one by one while the NIC
/// receives, showing communications being squeezed to their floor in real
/// time. Returns the chart.
pub fn timeline_figure() -> DualAxisChart {
    let platform = platforms::henri();
    let fabric = Fabric::new(&platform);
    let nic = NicModel::new(&fabric);
    let numa = mc_topology::NumaId::new(0);
    // One new core joins every 20 ms.
    let mut acts: Vec<Activity> = (0..platform.max_compute_cores())
        .map(|i| Activity {
            spec: StreamSpec::CpuWrite { numa },
            unit_bytes: 64e6,
            lead: 0.0,
            tail: 2e-6,
            start: i as f64 * 0.02,
        })
        .collect();
    acts.push(nic.activity(StreamSpec::DmaRecv { numa }, 64 << 20, 0.0));
    let (_, trace) = Engine::new(&fabric).run_traced(&acts, 0.0, 0.40);

    // Events can land inside the µs-scale rendezvous/gap windows where the
    // NIC is momentarily idle; keep the streaming envelope for the figure.
    let comm: Vec<(f64, f64)> = trace
        .iter()
        .filter(|s| s.comm > 0.0)
        .map(|s| (s.t * 1e3, s.comm))
        .collect();
    let comp: Vec<(f64, f64)> = trace.iter().map(|s| (s.t * 1e3, s.compute)).collect();
    DualAxisChart {
        title: "henri — one core joins every 20 ms while the NIC receives".into(),
        x_label: "time (ms)".into(),
        left_label: "Network bandwidth (GB/s)".into(),
        right_label: "Memory bandwidth (GB/s)".into(),
        series: vec![
            Series {
                label: "communications".into(),
                points: comm,
                color: COMM_COLOR.into(),
                style: SeriesStyle::Line,
                axis: YAxis::Left,
            },
            Series {
                label: "computations".into(),
                points: comp,
                color: COMP_COLOR.into(),
                style: SeriesStyle::Line,
                axis: YAxis::Right,
            },
        ],
        highlighted: false,
        legend: true,
    }
}

/// CSV of the model's parallel predictions for every placement — exported
/// next to the measured-sweep CSV so figures can be re-plotted elsewhere.
pub fn predictions_csv(platform: &Platform, sweep: &PlatformSweep) -> Result<String, McError> {
    let model = calibrated_model(platform, sweep)?;
    let mut out = String::from("platform,m_comp,m_comm,n_cores,pred_comp_par,pred_comm_par\n");
    for (m_comp, m_comm) in platform.topology.placement_combinations() {
        for n in 1..=platform.max_compute_cores() {
            let pr = model.predict(n, m_comp, m_comm);
            out.push_str(&format!(
                "{},{},{},{},{:.6},{:.6}\n",
                platform.name(),
                m_comp.0,
                m_comm.0,
                n,
                pr.comp,
                pr.comm
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shows_every_platform() {
        let f = figure1();
        for (_, name) in FIGURE_PLATFORMS {
            assert!(f.contains(name), "missing {name}");
        }
    }

    #[test]
    fn figure2_marks_the_four_calibration_points() {
        let d = figure2(BenchConfig::default()).unwrap();
        assert_eq!(d.marks.len(), 4);
        assert_eq!(d.n_cores.len(), 17);
        // Stacked data must be renderable.
        let svg = d.render(640.0, 420.0).render();
        assert!(svg.contains("Tmax_par"));
    }

    #[test]
    fn henri_grid_is_2x2_with_two_highlights() {
        let p = platforms::henri();
        let (grid, _) = placement_grid(&p, BenchConfig::default()).unwrap();
        assert_eq!(grid.charts.len(), 4);
        assert_eq!(grid.cols, 2);
        let highlighted = grid.charts.iter().filter(|c| c.highlighted).count();
        assert_eq!(highlighted, 2, "both calibration placements highlighted");
        // Every subplot has 8 series (4 comm + 4 comp).
        for c in &grid.charts {
            assert_eq!(c.series.len(), 8);
        }
    }

    #[test]
    fn subnuma_grid_is_4x4() {
        let p = platforms::henri_subnuma();
        let (grid, sweep) = placement_grid(&p, BenchConfig::default()).unwrap();
        assert_eq!(grid.charts.len(), 16);
        assert_eq!(grid.cols, 4);
        assert_eq!(sweep.sweeps.len(), 16);
    }

    #[test]
    fn gantt_shows_transfers_hiding_behind_compute() {
        let g = overlap_gantt();
        assert_eq!(g.rows.len(), 2);
        assert_eq!(g.rows[0].bars.len(), 4);
        assert_eq!(g.rows[1].bars.len(), 4);
        // Every transfer starts inside (or at the start of) its iteration's
        // compute bar — that is what overlap means.
        for (job, tr) in g.rows[0].bars.iter().zip(&g.rows[1].bars) {
            assert!(tr.t0 <= job.t1, "transfer starts during the iteration");
            assert!(tr.t1 > tr.t0);
        }
    }

    #[test]
    fn heatmap_covers_the_grid_and_flags_pyxis_hotspot() {
        let p = platforms::by_name("pyxis").unwrap();
        let hm = error_heatmap(&p, BenchConfig::default()).unwrap();
        assert_eq!(hm.values.len(), 4);
        // The (comp local, comm remote) cell is the locality-quirk hotspot:
        // row = comm numa1, col = comp numa0 → index 2·1+0 = 2.
        let hotspot = hm.values[2];
        let best = hm.values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(hotspot > 4.0 * best, "hotspot {hotspot} vs best {best}");
    }

    #[test]
    fn timeline_figure_shows_the_squeeze() {
        let chart = timeline_figure();
        let comm = &chart.series[0].points;
        // Early: NIC near nominal; late: squeezed to the floor.
        let early = comm.iter().find(|(t, _)| *t > 5.0).unwrap().1;
        let late = comm.last().unwrap().1;
        assert!(early > 10.0, "early comm {early}");
        assert!(late < 0.4 * early, "late comm {late}");
        // Compute ramps up as cores join.
        let comp = &chart.series[1].points;
        assert!(comp.last().unwrap().1 > 10.0 * comp.first().unwrap().1);
    }

    #[test]
    fn predictions_csv_has_all_rows() {
        let p = platforms::henri();
        let sweep = sweep_platform_parallel(&p, BenchConfig::default());
        let csv = predictions_csv(&p, &sweep).unwrap();
        // header + 4 placements × 17 core counts
        assert_eq!(csv.lines().count(), 1 + 4 * 17);
    }
}
