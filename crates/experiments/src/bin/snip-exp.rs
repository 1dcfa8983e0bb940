//! `snip-exp <name> [--quick]` — regenerates one table or figure of the
//! SNIP paper; with no name, all of them in registry order (the CI sweep).
//! See the `snip-experiments` crate docs.

use snip_experiments::{exp, Ctx};

fn main() {
    // `comm_precision --transport process` re-executes this binary as its
    // rank workers: divert those before any experiment work.
    #[cfg(unix)]
    snip_pipeline::transport::proc::worker_boot();
    let ckpt_dir = std::env::var_os("SNIP_CKPT_DIR")
        .map_or_else(|| "target/snip_checkpoints".into(), Into::into);
    let (selected, ctx) = Ctx::parse(std::env::args().skip(1), ckpt_dir)
        .and_then(|(name, ctx)| Ok((exp::select(name.as_deref())?, ctx)))
        .unwrap_or_else(|e| {
            eprintln!("snip-exp: {e}\n\n{}", exp::usage());
            std::process::exit(2);
        });
    if let Err(e) = exp::run(&selected, &ctx) {
        eprintln!("snip-exp: {e}");
        std::process::exit(1);
    }
}
