//! `locec serve`: the edge-query daemon and its `--connect` client.

use super::{vobj, Args, CliError, Recorder, RunReport, Value, Verb};
use locec::serve::{EdgeOutcome, ServeAssets, ServeClient, Server};
use locec::store::{load_community_model, load_division, load_edge_model, InferenceWorld};
use locec::synth::types::RelationType;

pub const DAEMON: Verb = Verb {
    flags: "world division model edge-model listen addr-file",
    config: true,
    ..Verb::new("serve", daemon)
};

pub const CONTROL: Verb = Verb {
    mode: Some("connect"),
    flags: "connect reload-division reload-world edge community-of top-k",
    switches: "status stop",
    ..Verb::new("serve", control)
};

fn daemon(p: &Args, report: &mut RunReport) -> Result<(), CliError> {
    let config = p.locec_config()?;
    let world = InferenceWorld::load(&p.path("world")?)?;
    let division = load_division(&p.path("division")?)?;
    let community_model = load_community_model(&p.path("model")?)?;
    let edge_model = load_edge_model(&p.path("edge-model")?)?;
    let assets = ServeAssets::new(community_model, edge_model, &config);
    let listen = p.str("listen").unwrap_or("127.0.0.1:0");
    let server = Server::bind(world, assets, division, listen)?;
    let addr = server.local_addr()?;
    if let Some(addr_file) = p.str("addr-file") {
        std::fs::write(addr_file, addr.to_string()).map_err(|e| format!("{addr_file}: {e}"))?;
    }
    println!("serve: listening on {addr}");
    let t0 = std::time::Instant::now();
    let summary = server.run()?;
    let secs = t0.elapsed().as_secs_f64();

    // p50/p99 of a recorded latency histogram; zeros when the query kind
    // was never served.
    let snap = Recorder::global().snapshot();
    let hists = &snap.histograms;
    let latency = |name: &str, q| Value::Uint(hists.get(name).map_or(0, |h| h.percentile(q)));
    report.set_section(
        "serve",
        vobj(vec![
            ("listen", Value::Str(addr.to_string())),
            ("wall_seconds", Value::Float(secs)),
            ("connections", Value::Uint(summary.connections)),
            ("edge_queries", Value::Uint(summary.edge_queries)),
            ("community_queries", Value::Uint(summary.community_queries)),
            ("top_k_queries", Value::Uint(summary.top_k_queries)),
            ("reloads", Value::Uint(summary.reloads)),
            ("final_epoch", Value::Uint(summary.final_epoch)),
            ("edge_p50_nanos", latency("serve.edge_nanos", 0.5)),
            ("edge_p99_nanos", latency("serve.edge_nanos", 0.99)),
            ("community_p50_nanos", latency("serve.community_nanos", 0.5)),
            (
                "community_p99_nanos",
                latency("serve.community_nanos", 0.99),
            ),
            ("top_k_p50_nanos", latency("serve.top_k_nanos", 0.5)),
            ("top_k_p99_nanos", latency("serve.top_k_nanos", 0.99)),
            ("reload_p50_nanos", latency("serve.reload_nanos", 0.5)),
            ("reload_p99_nanos", latency("serve.reload_nanos", 0.99)),
        ]),
    );
    println!(
        "serve: shut down after {:.3}s — {} connections, {} edge / {} community / {} top-k \
         queries, {} reload(s), final epoch {}",
        secs,
        summary.connections,
        summary.edge_queries,
        summary.community_queries,
        summary.top_k_queries,
        summary.reloads,
        summary.final_epoch
    );
    Ok(())
}

/// The name of a served class label; `unknown` past the known classes.
fn label_name(label: u8) -> &'static str {
    if (label as usize) < RelationType::COUNT {
        RelationType::from_label(label as usize).name()
    } else {
        "unknown"
    }
}

/// Parses `"A,B"` into two integers for the `--edge U,V` / `--top-k N,K`
/// control flags.
fn parse_pair(name: &str, value: &str) -> Result<(u32, u32), String> {
    let (a, b) = value
        .split_once(',')
        .ok_or_else(|| format!("--{name} wants 'A,B', got '{value}'"))?;
    let parse = |s: &str| {
        s.trim()
            .parse()
            .map_err(|_| format!("invalid --{name} '{value}'"))
    };
    Ok((parse(a)?, parse(b)?))
}

/// One-shot control/query client: `locec serve --connect ADDR ...`.
fn control(p: &Args, _: &mut RunReport) -> Result<(), CliError> {
    let addr = p.str("connect").unwrap_or_default();
    let mut client = ServeClient::connect(addr)?;
    let queries = ["edge", "community-of", "top-k", "reload-division"];
    if !p.has("status") && !p.has("stop") && queries.iter().all(|q| p.str(q).is_none()) {
        return Err(format!(
            "serve --connect {}: nothing to do — pass --status, --stop, --reload-division, \
             --edge, --community-of or --top-k (daemon epoch {})",
            addr,
            client.welcome().epoch
        )
        .into());
    }

    if let Some(spec) = p.str("edge") {
        let (u, v) = parse_pair("edge", spec)?;
        let reply = client.classify_edge(u, v)?;
        match reply.outcome {
            EdgeOutcome::Classified { label, proba } => {
                let proba: Vec<String> = proba.iter().map(|p| format!("{p:.4}")).collect();
                println!(
                    "edge {u}-{v}: {} [{}] (epoch {})",
                    label_name(label),
                    proba.join(", "),
                    reply.epoch
                );
            }
            EdgeOutcome::NoSuchEdge => println!("edge {u}-{v}: no such edge"),
            EdgeOutcome::Uncovered => {
                println!("edge {u}-{v}: not covered by the served division")
            }
        }
    }
    if let Some(node) = p.num::<u32>("community-of")? {
        let reply = client.communities_of(node)?;
        let n = reply.memberships.len();
        let plural = if n == 1 { "y" } else { "ies" };
        println!(
            "node {node}: {n} local communit{plural} (epoch {})",
            reply.epoch
        );
        for m in &reply.memberships {
            println!(
                "  ego {} community {}: {} members, tightness {:.4}, {}",
                m.ego,
                m.community,
                m.size,
                m.tightness,
                label_name(m.label)
            );
        }
    }
    if let Some(spec) = p.str("top-k") {
        let (node, k) = parse_pair("top-k", spec)?;
        let reply = client.top_k_intimate(node, k)?;
        println!(
            "node {node}: top {} intimate neighbor(s) (epoch {})",
            reply.neighbors.len(),
            reply.epoch
        );
        for (rank, (v, tightness)) in reply.neighbors.iter().enumerate() {
            println!("  #{} node {v} tightness {tightness:.4}", rank + 1);
        }
    }
    if let Some(division) = p.str("reload-division") {
        let reply = client.reload(p.str("reload-world"), division)?;
        match reply.outcome {
            Ok((epoch, communities)) => {
                println!("reload: now serving epoch {epoch} ({communities} communities)")
            }
            Err(e) => return Err(format!("reload refused: {e}").into()),
        }
    }
    if p.has("status") {
        let s = client.status()?;
        println!(
            "status: epoch {}, up {:.1}s, {} reload(s), {} connection(s)",
            s.epoch,
            s.uptime_nanos as f64 / 1e9,
            s.reloads,
            s.connections
        );
        println!(
            "  {} nodes, {} edges, {} communities ({} embeddings cached)",
            s.num_nodes, s.num_edges, s.num_communities, s.cached_embeddings
        );
        println!(
            "  queries: {} edge, {} community, {} top-k",
            s.edge_queries, s.community_queries, s.top_k_queries
        );
    }
    if p.has("stop") {
        client.shutdown()?;
        println!("stop: shutdown requested");
    }
    Ok(())
}
