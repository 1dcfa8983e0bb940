//! Chaos harness: deterministic fault injection across the multi-rank
//! transport, on both fabrics.
//!
//! Every check here runs a seeded [`ChaosPlan`] against the threaded
//! channel mesh and/or the process socket mesh and pins the dual
//! contract from the `transport::chaos` module docs:
//!
//! 1. **Fault-free transparency** — an empty or delay-only plan is
//!    invisible: gradients, RNG streams and both-sided payload counters
//!    are bit-identical to the undecorated fabric.
//! 2. **Typed failure, bounded unwind** — every fault class (kill, link
//!    close, frame truncation, payload corruption, stall past the
//!    deadline) surfaces its documented `TransportError` at the faulted
//!    rank, survivors unwind with typed cascade errors inside a
//!    wall-clock budget, and the launcher attributes the root cause, not
//!    a bystander's cascade.
//!
//! Plus the recovery path: a mid-run rank kill, retried from the last
//! good parameter state, reaches the bit-identical final model an
//! unfaulted run produces.
//!
//! The file opts out of the libtest harness (`harness = false`) because
//! the process-fabric checks re-execute this binary to spawn rank
//! workers, which must divert into `worker_boot()` before any test
//! logic. Every check self-times: CI runs this file in debug and
//! `--release`, and a fault that deadlocks instead of unwinding fails
//! the per-check wall-clock guard rather than hanging the job.

mod support;

#[cfg(unix)]
mod checks {
    use crate::support::{
        all_wires, assert_bits_equal, failure_counters_moved_by, make_grads, proc_collective,
        Collective, Moved, ProcCollective,
    };
    use snip_core::{Trainer, TrainerConfig};
    use snip_pipeline::collective::{QuantizePolicy, Wire};
    use snip_pipeline::transport::proc::{proc_all_reduce, ProcError};
    use snip_pipeline::transport::{
        channel_mesh, data_parallel_train, data_parallel_train_with_recovery, run_ranks,
        threaded_all_reduce, try_data_parallel_train, ChaosPlan, Endpoint, FailureClass, RankChunk,
        TransportError, TransportStats, DEFAULT_RECV_DEADLINE,
    };
    use snip_quant::StreamError;
    use snip_tensor::rng::Rng;
    use std::time::{Duration, Instant};

    /// Runs one check under a wall-clock budget: chaos that deadlocks
    /// instead of unwinding fails here instead of hanging CI.
    fn timed(name: &str, budget: Duration, f: impl FnOnce()) {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed();
        assert!(
            elapsed < budget,
            "{name}: took {elapsed:?}, budget {budget:?} — survivors must unwind promptly"
        );
        println!("ok - {name} ({elapsed:?})");
    }

    type Outcomes<T> = (Vec<Result<T, TransportError>>, TransportStats);

    /// A threaded all-reduce under `plan`, every rank's outcome kept.
    fn all_reduce_under(
        grads: &[Vec<f32>],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &[Rng],
        plan: &ChaosPlan,
    ) -> Outcomes<Vec<f32>> {
        run_ranks(grads.len(), Some(plan), |ep| {
            let mut rng = rngs[ep.rank()].clone();
            ep.ring_all_reduce(&grads[ep.rank()], wire, policy, &mut rng)
        })
    }

    /// A threaded reduce-scatter under `plan` (`None`: the driver's own
    /// pass-through), every rank's outcome kept.
    fn reduce_scatter_under(
        grads: &[Vec<f32>],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &[Rng],
        plan: Option<&ChaosPlan>,
    ) -> Outcomes<RankChunk> {
        run_ranks(grads.len(), plan, |ep| {
            let mut rng = rngs[ep.rank()].clone();
            ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
        })
    }

    /// Two process-fabric runs of one collective agree on owned chunks,
    /// every rank's bits, RNG streams and payload bytes.
    fn assert_same_proc_run(got: &ProcCollective, want: &ProcCollective, ctx: &str) {
        assert_eq!(got.result.owned, want.result.owned, "{ctx}: owned chunks");
        assert_eq!(
            got.rng_fingerprints, want.rng_fingerprints,
            "{ctx}: RNG streams"
        );
        assert_eq!(
            got.stats.total_payload_bytes(),
            want.stats.total_payload_bytes(),
            "{ctx}: payload bytes"
        );
        for (rank, (g, w)) in got
            .result
            .per_rank
            .iter()
            .zip(&want.result.per_rank)
            .enumerate()
        {
            assert_bits_equal(g, w, &format!("{ctx}, rank {rank}"));
        }
    }

    /// An all-reduce over **undecorated** `ChannelFabric`s. The drivers
    /// decorate every fabric, so the bare baseline is wired by hand: one
    /// endpoint (with its own counters) per scoped thread. Returns each
    /// rank's result and the sender-side (payload, envelope, frames)
    /// totals.
    fn bare_all_reduce(
        grads: &[Vec<f32>],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &[Rng],
    ) -> (Vec<Vec<f32>>, [u64; 3]) {
        let per_rank: Vec<(Vec<f32>, TransportStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = channel_mesh(grads.len(), DEFAULT_RECV_DEADLINE)
                .into_iter()
                .map(|fabric| {
                    scope.spawn(move || {
                        let mut ep = Endpoint::new(fabric);
                        let mut rng = rngs[ep.rank()].clone();
                        let reduced = ep
                            .ring_all_reduce(&grads[ep.rank()], wire, policy, &mut rng)
                            .expect("bare all-reduce");
                        (reduced, ep.stats())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("bare rank"))
                .collect()
        });
        let mut totals = [0u64; 3];
        for (_, stats) in &per_rank {
            totals[0] += stats.total_payload_bytes();
            totals[1] += stats.total_envelope_bytes();
            totals[2] += stats.total_frames();
        }
        (per_rank.into_iter().map(|(r, _)| r).collect(), totals)
    }

    /// Contract 1, threads: a `ChaosFabric` running an empty plan is
    /// bit-identical to the bare fabric — results, byte counters, frame
    /// counts — for exact and packed codecs, reduce-scatter and
    /// all-reduce alike.
    fn fault_free_chaos_is_bit_identical_to_bare_fabric() {
        let world = 4;
        let calm = ChaosPlan::none(0xFEED);
        assert!(calm.faults.is_empty());
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::fp8(32)] {
            let grads = make_grads(world, 53, 11);
            let rngs: Vec<Rng> = (0..world as u64).map(Rng::seed_from).collect();

            let (bare, bare_stats) =
                threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &rngs);
            let (chaos, chaos_stats) =
                all_reduce_under(&grads, &wire, QuantizePolicy::EveryHop, &rngs, &calm);
            assert_eq!(
                bare_stats,
                chaos_stats,
                "{}: every counter must match the undecorated run",
                wire.label()
            );
            for (rank, (b, c)) in bare.iter().zip(&chaos).enumerate() {
                let c = c.as_ref().expect("fault-free rank must succeed");
                assert_bits_equal(b, c, &format!("{} rank {rank}", wire.label()));
            }
            // `threaded_all_reduce` runs the driver's pass-through plan;
            // pin both against fabrics no decorator ever touched.
            let (undecorated, totals) =
                bare_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &rngs);
            assert_eq!(
                totals,
                [
                    chaos_stats.total_payload_bytes(),
                    chaos_stats.total_envelope_bytes(),
                    chaos_stats.total_frames()
                ],
                "{}: counters must match the undecorated fabric",
                wire.label()
            );
            for (rank, (u, b)) in undecorated.iter().zip(&bare).enumerate() {
                assert_bits_equal(u, b, &format!("{} undecorated rank {rank}", wire.label()));
            }

            let (bare_rs, bare_rs_stats) =
                reduce_scatter_under(&grads, &wire, QuantizePolicy::FinalOnly, &rngs, None);
            let (chaos_rs, chaos_rs_stats) =
                reduce_scatter_under(&grads, &wire, QuantizePolicy::FinalOnly, &rngs, Some(&calm));
            assert_eq!(bare_rs_stats, chaos_rs_stats, "{}", wire.label());
            for (rank, (b, c)) in bare_rs.iter().zip(&chaos_rs).enumerate() {
                let b = b.as_ref().expect("calm rank must succeed");
                let c = c.as_ref().expect("fault-free rank must succeed");
                assert_eq!((c.lo, c.hi), (b.lo, b.hi), "{}: ownership", wire.label());
                assert_bits_equal(
                    &b.data,
                    &c.data,
                    &format!("{} rs rank {rank}", wire.label()),
                );
            }
        }
    }

    /// Contract 1, delays: a delay-only plan slows links down but changes
    /// nothing — on every codec, for reduce-scatter under both policies
    /// and for all-reduce, results, byte counters and RNG streams stay
    /// bit-identical to a calm run.
    fn delay_only_chaos_changes_nothing_but_wall_clock() {
        let world = 3;
        let slow = ChaosPlan::delay_all_links(0xD11A, world, 250);
        let grads = make_grads(world, 41, 19);
        let rngs: Vec<Rng> = (0..world as u64)
            .map(|r| Rng::seed_from(0x50 + r))
            .collect();
        let collectives = [
            (Collective::ReduceScatter, QuantizePolicy::EveryHop),
            (Collective::ReduceScatter, QuantizePolicy::FinalOnly),
            (Collective::AllReduce, QuantizePolicy::EveryHop),
        ];
        for wire in all_wires() {
            for (collective, policy) in collectives {
                let case = format!("{} {collective:?} {policy:?}", wire.label());
                let run = |plan| {
                    run_ranks(world, plan, |ep| {
                        let mut rng = rngs[ep.rank()].clone();
                        let grad = &grads[ep.rank()];
                        let chunk = match collective {
                            Collective::ReduceScatter => ep
                                .ring_reduce_scatter(grad, &wire, policy, &mut rng)
                                .map(|c| (c.lo, c.data)),
                            Collective::AllReduce => ep
                                .ring_all_reduce(grad, &wire, policy, &mut rng)
                                .map(|data| (0, data)),
                        };
                        (chunk.expect("delays are not failures"), rng)
                    })
                };
                let (calm, calm_stats) = run(None);
                let (delayed, delayed_stats) = run(Some(&slow));
                assert_eq!(calm_stats, delayed_stats, "{case}: counters");
                for (rank, (((clo, c), crng), ((dlo, d), drng))) in
                    calm.iter().zip(&delayed).enumerate()
                {
                    assert_eq!(clo, dlo, "{case} rank {rank}: owned chunk");
                    assert_bits_equal(c, d, &format!("{case} rank {rank}"));
                    assert_eq!(crng, drng, "{case} rank {rank}: RNG state");
                }
            }
        }
    }

    /// Contract 2, kill: the killed rank observes the sticky
    /// `Killed { rank }`, every survivor unwinds with a typed cascade
    /// error, and no receiver ever counts more than its sender shipped.
    fn kill_surfaces_typed_error_and_survivors_unwind() {
        let world = 4;
        let plan = ChaosPlan::kill(0x517, 2, 3);
        let grads = make_grads(world, 64, 23);
        let rngs: Vec<Rng> = (0..world as u64).map(Rng::seed_from).collect();
        let (outcomes, stats) = all_reduce_under(
            &grads,
            &Wire::exact(),
            QuantizePolicy::EveryHop,
            &rngs,
            &plan,
        );
        assert_eq!(
            outcomes[2],
            Err(TransportError::Killed { rank: 2 }),
            "the faulted rank must know exactly what happened to it"
        );
        for (rank, outcome) in outcomes.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            match outcome {
                Err(TransportError::PeerClosed { .. }) | Err(TransportError::Timeout { .. }) => {}
                other => panic!("rank {rank}: expected a typed cascade, got {other:?}"),
            }
        }
        // Frames the kill stranded in flight are counted by their sender
        // only; a receiver can never have counted more than was sent.
        for src in 0..world {
            for dst in 0..world {
                assert!(
                    stats.link_rx_payload_bytes(src, dst) <= stats.link_payload_bytes(src, dst),
                    "{src}->{dst}: receiver counted more than the sender shipped"
                );
            }
        }
    }

    /// Contract 2, close: both ends of a closed link observe
    /// `PeerClosed` at the same frame index, so the frames that did move
    /// cross-check two-sided.
    fn closed_link_fails_both_ends_at_the_same_frame() {
        let plan = ChaosPlan::close_link(0xC105E, 0, 1, 1);
        let payload: Vec<f32> = (0..24).map(|i| i as f32 * 0.5 - 6.0).collect();
        let (outcomes, stats) = run_ranks(2, Some(&plan), |ep| {
            let mut rng = Rng::seed_from(3);
            if ep.rank() == 0 {
                ep.send(1, &payload, &Wire::exact(), &mut rng)?;
                ep.send(1, &payload, &Wire::exact(), &mut rng)?;
                Ok(Vec::new())
            } else {
                ep.recv(0)?;
                ep.recv(0)
            }
        });
        assert_eq!(outcomes[0], Err(TransportError::PeerClosed { rank: 1 }));
        assert_eq!(outcomes[1], Err(TransportError::PeerClosed { rank: 0 }));
        // Exactly one frame moved, and both ends agree on it.
        assert_eq!(stats.link_frames(0, 1), 1);
        assert_eq!(
            stats.link_payload_bytes(0, 1),
            stats.link_rx_payload_bytes(0, 1),
            "the surviving frames must cross-check two-sided"
        );
        assert_eq!(stats.link_payload_bytes(0, 1), 4 * 24);
    }

    /// Contract 2, damage: a truncated frame surfaces as
    /// `Stream { Truncated }`, a corrupted one as `Stream { Crc }` (the
    /// envelope CRC catches the flip), and the damaged link is dead
    /// afterwards.
    fn truncation_and_corruption_surface_stream_errors() {
        let payload: Vec<f32> = (0..17).map(|i| i as f32 * 0.25).collect();
        for (truncate, seed) in [(true, 0x7123_u64), (false, 0xC1C5)] {
            let plan = if truncate {
                ChaosPlan::truncate(seed, 0, 1, 0)
            } else {
                ChaosPlan::corrupt(seed, 0, 1, 0)
            };
            let (outcomes, _) = run_ranks(2, Some(&plan), |ep| {
                let mut rng = Rng::seed_from(5);
                if ep.rank() == 0 {
                    ep.send(1, &payload, &Wire::bf16(), &mut rng)?;
                    Ok::<_, TransportError>(None)
                } else {
                    let first = ep.recv(0);
                    let second = ep.recv(0);
                    Ok(Some((first, second)))
                }
            });
            let (first, second) = outcomes[1]
                .as_ref()
                .expect("receiver returns its observations")
                .clone()
                .expect("receiver rank");
            match first {
                Err(TransportError::Stream { src: 0, error }) => {
                    if truncate {
                        assert!(
                            matches!(error, StreamError::Truncated { need, got } if got < need),
                            "got {error:?}"
                        );
                    } else {
                        assert!(
                            matches!(error, StreamError::Crc { expect, got } if expect != got),
                            "got {error:?}"
                        );
                    }
                }
                other => panic!("expected stream damage from rank 0, got {other:?}"),
            }
            // The damaged link is dead: further receives are PeerClosed.
            assert_eq!(second, Err(TransportError::PeerClosed { rank: 0 }));
        }
    }

    /// Contract 2, stall: a peer that is alive but silent past the recv
    /// deadline surfaces as `Timeout { src, elapsed }` — not a hang, and
    /// not `PeerClosed` (the link never closed).
    fn stalled_peer_times_out_within_deadline() {
        let deadline = Duration::from_millis(50);
        let plan = ChaosPlan::none(0).with_recv_deadline(deadline);
        let (outcomes, _) = run_ranks(2, Some(&plan), |ep| {
            if ep.rank() == 1 {
                // Alive and holding its links open, but never sending.
                std::thread::sleep(Duration::from_millis(300));
                return Ok(Vec::new());
            }
            ep.recv(1)
        });
        match &outcomes[0] {
            Err(TransportError::Timeout { src: 1, elapsed }) => {
                assert!(
                    *elapsed >= deadline,
                    "reported wait {elapsed:?} shorter than the deadline"
                );
            }
            other => panic!("expected a timeout on rank 1, got {other:?}"),
        }
        assert_eq!(outcomes[1], Ok(Vec::new()));
    }

    /// The same fault classes across the **process** fabric: each plan
    /// ships to the workers inside the task spec, fires in the worker's
    /// `ChaosFabric`, and the launcher reports the faulted rank's typed
    /// error as the root cause — never a bystander's cascade.
    fn proc_chaos_sweep_reports_root_causes() {
        let world = 3;
        let grads = make_grads(world, 45, 29);
        let seeds: Vec<u64> = (0..world as u64).map(|r| 0xE0 ^ r).collect();
        let wire = Wire::fp8(32);

        // Fault-free decoration is invisible on sockets too.
        let all_reduce = |plan: ChaosPlan| {
            proc_collective(
                &grads,
                &wire,
                Collective::AllReduce,
                QuantizePolicy::EveryHop,
                &seeds,
                Some(&plan),
            )
        };
        let calm = all_reduce(ChaosPlan::none(1)).expect("fault-free chaos run");
        let bare = proc_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &seeds)
            .map(ProcCollective::from_launch)
            .expect("bare run");
        assert_same_proc_run(&calm, &bare, "calm chaos vs bare");

        // Delay-only: slower, bit-identical.
        let delayed =
            all_reduce(ChaosPlan::delay_all_links(0xD2, world, 200)).expect("delay-only chaos run");
        assert_same_proc_run(&delayed, &bare, "delayed vs bare");

        // The same for a reduce-scatter under either policy.
        for policy in [QuantizePolicy::EveryHop, QuantizePolicy::FinalOnly] {
            let slow = ChaosPlan::delay_all_links(0xD3, world, 200);
            let run = |plan| {
                let rs = Collective::ReduceScatter;
                proc_collective(&grads, &wire, rs, policy, &seeds, plan)
                    .expect("delays are not failures")
            };
            let ctx = format!("delayed vs bare reduce-scatter, {policy:?}");
            assert_same_proc_run(&run(Some(&slow)), &run(None), &ctx);
        }

        // Kill: the worker's own Killed error is the attributed root.
        let (rank, message, on_procs, on_threads) =
            proc_failure_matches_threads(&grads, &wire, &seeds, &ChaosPlan::kill(0x1C, 1, 2));
        assert_eq!(rank, 1, "root cause must be the killed rank: {message}");
        assert!(
            message.contains("killed by its chaos schedule"),
            "got: {message}"
        );
        assert_eq!(
            on_procs.failures.get("transport.killed"),
            Some(&1),
            "{on_procs:?}"
        );
        // Rank 1's first send precedes any failure, so its ledger holds a
        // frame, and both drivers publish a failed run's ledgers.
        assert!(
            on_procs.frames > 0 && on_threads.frames > 0,
            "traffic published: {on_procs:?} / {on_threads:?}"
        );

        // Corruption: the receiver's CRC check names the damaged link.
        let (rank, message, ..) =
            proc_failure_matches_threads(&grads, &wire, &seeds, &ChaosPlan::corrupt(0x2C, 0, 1, 0));
        assert_eq!(rank, 1, "the receiver detects the damage: {message}");
        assert!(
            message.contains("damaged stream from rank 0") && message.contains("crc mismatch"),
            "got: {message}"
        );

        // Truncation: same path, different typed defect.
        let (rank, message, ..) = proc_failure_matches_threads(
            &grads,
            &wire,
            &seeds,
            &ChaosPlan::truncate(0x3C, 2, 0, 1),
        );
        assert_eq!(rank, 0, "the receiver detects the damage: {message}");
        assert!(
            message.contains("damaged stream from rank 2") && message.contains("ended mid-frame"),
            "got: {message}"
        );

        // Close: both ends fail with PeerClosed — all errors are
        // cascades, and the launcher still reports a deterministic one.
        let (rank, message, ..) = proc_failure_matches_threads(
            &grads,
            &wire,
            &seeds,
            &ChaosPlan::close_link(0x4C, 0, 1, 0),
        );
        assert!(rank == 0 || rank == 1, "link ends only: rank {rank}");
        assert!(message.contains("closed its link"), "got: {message}");
    }

    /// Runs an all-reduce under `plan` on both fabrics. The launch must
    /// fail as a worker failure whose class is that of the typed error the
    /// threaded run reports at the same rank, and move the same transport
    /// failure counters. Returns the failed rank, the launcher's message
    /// and the counters each fabric moved, processes first.
    fn proc_failure_matches_threads(
        grads: &[Vec<f32>],
        wire: &Wire,
        seeds: &[u64],
        plan: &ChaosPlan,
    ) -> (usize, String, Moved, Moved) {
        let policy = QuantizePolicy::EveryHop;
        let rngs: Vec<Rng> = seeds.iter().map(|&s| Rng::seed_from(s)).collect();
        let ((outcomes, _), on_threads) =
            failure_counters_moved_by(|| all_reduce_under(grads, wire, policy, &rngs, plan));
        let (err, on_procs) = failure_counters_moved_by(|| {
            proc_collective(
                grads,
                wire,
                Collective::AllReduce,
                policy,
                seeds,
                Some(plan),
            )
            .expect_err("a faulted run must fail")
        });
        let ProcError::Worker {
            rank,
            class,
            message,
        } = err
        else {
            panic!("expected a worker failure, got {err}");
        };
        let on_thread = outcomes[rank]
            .as_ref()
            .expect_err("same rank fails on threads");
        assert_eq!(
            class,
            FailureClass::of(Some(on_thread)),
            "rank {rank}: {message} vs {on_thread}"
        );
        assert_eq!(
            on_procs.failures, on_threads.failures,
            "{plan:?}: failure counters"
        );
        (rank, message, on_procs, on_threads)
    }

    /// A worker that dies at boot, right after reading its START, fails
    /// the *launch* with a typed error naming the dead rank — promptly, as
    /// EOF on its own pipe, while its peers still wait for it in the mesh
    /// (`timed` prints how long that took).
    fn boot_death_fails_launch_naming_the_rank() {
        use serde::Content;
        use snip_obs::report::{build_report, set_section};
        /// The published `transport` section's `world` and `frames`.
        fn published() -> Option<(u64, u64)> {
            let Content::Map(top) = build_report() else {
                return None;
            };
            let (_, Content::Map(section)) = top.into_iter().find(|(k, _)| k == "transport")?
            else {
                return None;
            };
            let field = |name: &str| match section.iter().find(|(k, _)| k == name) {
                Some((_, Content::U64(v))) => Some(*v),
                _ => None,
            };
            Some((field("world")?, field("frames")?))
        }
        set_section("transport", Content::Null);
        std::env::set_var(snip_pipeline::transport::proc::ENV_EXIT_AT_BOOT, "1");
        let grads = make_grads(3, 16, 31);
        let (err, moved) = failure_counters_moved_by(|| {
            proc_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &[1, 2, 3])
                .expect_err("a worker dead at boot must fail the launch")
        });
        std::env::remove_var(snip_pipeline::transport::proc::ENV_EXIT_AT_BOOT);
        assert!(err.to_string().contains("rank 1"), "got: {err}");
        match err {
            ProcError::Worker { rank, message, .. } => {
                assert_eq!(rank, 1, "the dead rank must be named: {message}");
                assert!(message.contains("without a report"), "got: {message}");
            }
            other => panic!("expected a worker failure, got {other}"),
        }
        // The survivors' reports were collected and their ledgers merged
        // and published: the mesh never formed, so the sum of their
        // ledgers is no frame at all, and the launch published exactly
        // that for its world of three.
        assert_eq!(published(), Some((3, moved.frames)), "{moved:?}");
        assert_eq!(moved.frames, 0, "{moved:?}");
    }

    /// Data-parallel training under a kill reports typed per-rank
    /// outcomes, and every rank's failed step is rolled back to the same
    /// step boundary.
    fn dp_chaos_kill_rolls_every_rank_to_a_step_boundary() {
        let mut cfgs = Vec::new();
        for rank in 0..2u64 {
            let mut cfg = TrainerConfig::tiny();
            cfg.data_seed = 300 + rank;
            cfgs.push(cfg);
        }
        let trainers: Vec<Trainer> = cfgs
            .iter()
            .map(|c| Trainer::new(c.clone()).expect("trainer"))
            .collect();
        let plan = ChaosPlan::kill(0xD0, 1, 25);
        let (returned, outcomes, _) = try_data_parallel_train(
            trainers,
            3,
            &Wire::exact(),
            QuantizePolicy::EveryHop,
            0x77,
            Some(&plan),
        );
        assert_eq!(
            outcomes[1].1,
            Some(TransportError::Killed { rank: 1 }),
            "the killed rank reports its own death"
        );
        assert!(
            matches!(
                outcomes[0].1,
                Some(TransportError::PeerClosed { .. }) | Some(TransportError::Timeout { .. })
            ),
            "the survivor reports a typed cascade: {:?}",
            outcomes[0].1
        );
        let step = returned[0].step_count();
        assert!(
            returned.iter().all(|t| t.step_count() == step),
            "failed steps must roll back so every rank rests on one boundary"
        );
        for (rank, (losses, _)) in outcomes.iter().enumerate() {
            assert_eq!(
                losses.len() as u64,
                returned[rank].step_count(),
                "rank {rank}: kept losses must match completed steps"
            );
        }
    }

    /// The acceptance-criteria recovery path: a mid-run rank kill,
    /// retried from the last good state, completes with bit-identical
    /// final parameters and losses to a run that never faulted.
    fn killed_and_retried_dp_run_matches_the_unfaulted_run_bit_for_bit() {
        let mut cfgs = Vec::new();
        for rank in 0..2u64 {
            let mut cfg = TrainerConfig::tiny();
            cfg.data_seed = 500 + rank;
            cfgs.push(cfg);
        }
        let fresh = || -> Vec<Trainer> {
            cfgs.iter()
                .map(|c| Trainer::new(c.clone()).expect("trainer"))
                .collect()
        };
        let (wire, policy, comm_seed, steps) = (Wire::fp8(16), QuantizePolicy::EveryHop, 0x42, 4);

        let (calm_trainers, calm_losses, _) =
            data_parallel_train(fresh(), steps, &wire, policy, comm_seed);

        // Attempt 0 kills rank 1 mid-run; attempt 1 runs calm.
        let plans = [ChaosPlan::kill(0xAB, 1, 40)];
        let (recovered, losses, retries) =
            data_parallel_train_with_recovery(fresh(), steps, &wire, policy, comm_seed, &plans, 3)
                .expect("the retry must complete the run");

        assert!(retries >= 1, "the kill must have cost at least one retry");
        assert_eq!(losses, calm_losses, "loss trajectories must be identical");
        for (rank, (a, b)) in recovered.iter().zip(&calm_trainers).enumerate() {
            assert_eq!(a.step_count(), b.step_count());
            // The checkpoint bytes, and the gradients a checkpoint leaves out.
            let state = |t: &Trainer| {
                let params = t.model.params();
                let grads = params.iter().flat_map(|p| p.grad().as_slice());
                (
                    t.checkpoint_bytes(),
                    grads.map(|g| g.to_bits()).collect::<Vec<_>>(),
                )
            };
            assert!(
                state(a) == state(b),
                "rank {rank}: recovered state must be byte-identical to the unfaulted run"
            );
        }
    }

    pub fn run_all() {
        let budget = Duration::from_secs(60);
        timed(
            "fault_free_chaos_is_bit_identical_to_bare_fabric",
            budget,
            fault_free_chaos_is_bit_identical_to_bare_fabric,
        );
        timed(
            "delay_only_chaos_changes_nothing_but_wall_clock",
            budget,
            delay_only_chaos_changes_nothing_but_wall_clock,
        );
        timed(
            "kill_surfaces_typed_error_and_survivors_unwind",
            budget,
            kill_surfaces_typed_error_and_survivors_unwind,
        );
        timed(
            "closed_link_fails_both_ends_at_the_same_frame",
            budget,
            closed_link_fails_both_ends_at_the_same_frame,
        );
        timed(
            "truncation_and_corruption_surface_stream_errors",
            budget,
            truncation_and_corruption_surface_stream_errors,
        );
        timed(
            "stalled_peer_times_out_within_deadline",
            Duration::from_secs(10),
            stalled_peer_times_out_within_deadline,
        );
        timed(
            "proc_chaos_sweep_reports_root_causes",
            Duration::from_secs(120),
            proc_chaos_sweep_reports_root_causes,
        );
        timed(
            "boot_death_fails_launch_naming_the_rank",
            Duration::from_secs(30),
            boot_death_fails_launch_naming_the_rank,
        );
        timed(
            "dp_chaos_kill_rolls_every_rank_to_a_step_boundary",
            budget,
            dp_chaos_kill_rolls_every_rank_to_a_step_boundary,
        );
        timed(
            "killed_and_retried_dp_run_matches_the_unfaulted_run_bit_for_bit",
            Duration::from_secs(120),
            killed_and_retried_dp_run_matches_the_unfaulted_run_bit_for_bit,
        );
    }
}

fn main() {
    #[cfg(unix)]
    {
        // Spawned rank workers re-enter here; divert them before any test
        // logic. In the parent this is a no-op.
        snip_pipeline::transport::proc::worker_boot();
        checks::run_all();
        println!("all chaos-harness checks passed");
    }
    #[cfg(not(unix))]
    println!("the chaos harness drives unix process workers; nothing to check");
}
