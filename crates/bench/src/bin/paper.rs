//! `paper <id>… | all | list` — regenerates the paper's tables and figures
//! (see the `locec_bench` crate docs). `LOCEC_SCALE` is the only setting.

use locec_bench::{select, World, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let selected = select(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let world = World::from_env();
    for (_, experiment) in selected {
        print!("{}", experiment(&world));
    }
}
