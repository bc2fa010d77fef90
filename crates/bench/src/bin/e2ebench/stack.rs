//! The serving stacks the workloads run against and the client that
//! drives them: grammar string in, hits read and next-cursor token out.

use std::path::Path;

use citegraph::{CitationNetwork, GraphDelta, ShardPlan};
use rankengine::{
    Hit, PageBuf, Query, QueryEngine, QueryScratch, RerankPolicy, ShardCursor, ShardedEngine,
};

use crate::gen::{Mix, Request, Shape};
use crate::Workload;

/// Shards of the `read_sharded` stack.
pub const N_SHARDS: usize = 8;

/// Methods of the flat read stacks; `write_durable` serves the first two.
pub const FLAT_METHODS: [&str; 3] = ["attrank", "cc", "pagerank"];

pub enum Stack {
    Flat(QueryEngine),
    Sharded(ShardedEngine),
}

/// Builds the three-method flat engine with a fsynced WAL on its default
/// (attrank) member, under `dir`.
pub fn build_flat(net: &CitationNetwork, methods: &[&str], dir: &Path) -> QueryEngine {
    let qe = QueryEngine::from_configs(net.clone(), methods, RerankPolicy::EveryBatch)
        .expect("method specs are valid");
    qe.engine(None)
        .expect("default method")
        .attach_wal(dir.join("flat.wal"))
        .expect("temp dir is writable");
    qe
}

/// Builds the attrank engine over `shards` contiguous id bands with one
/// fsynced WAL per shard, under `dir`.
pub fn build_sharded(net: &CitationNetwork, shards: usize, dir: &Path) -> ShardedEngine {
    let plan = ShardPlan::fixed(net, shards).expect("corpus has at least one paper per shard");
    let se = ShardedEngine::from_plan(net, &plan, "attrank", RerankPolicy::EveryBatch)
        .expect("attrank spec is valid");
    se.attach_wals(dir.join("sharded"))
        .expect("temp dir is writable");
    se
}

impl Stack {
    /// Set-up as `setup_s` times it (after corpus generation): engines
    /// built, epoch 0 ranked, WALs attached.
    pub fn build(workload: Workload, net: &CitationNetwork, dir: &Path) -> Stack {
        std::fs::create_dir_all(dir).expect("temp dir is writable");
        match workload {
            Workload::ReadMixed | Workload::ReadSelective => {
                Stack::Flat(build_flat(net, &FLAT_METHODS, dir))
            }
            Workload::WriteDurable => Stack::Flat(build_flat(net, &FLAT_METHODS[..2], dir)),
            Workload::ReadSharded => Stack::Sharded(build_sharded(net, N_SHARDS, dir)),
        }
    }

    pub fn n_papers(&self) -> usize {
        match self {
            Stack::Flat(qe) => qe.snapshot(None).expect("default method").n_papers(),
            Stack::Sharded(se) => se.snapshots().n_papers(),
        }
    }

    /// Ingests one batch; every stack publishes on every batch.
    pub fn ingest(&self, delta: &GraphDelta) -> Result<(), String> {
        match self {
            Stack::Flat(qe) => qe.ingest(delta).map(drop).map_err(|e| e.to_string()),
            Stack::Sharded(se) => se.ingest(delta).map(drop).map_err(|e| e.to_string()),
        }
    }

    /// Identity of the published state a page came from: the default
    /// method's epoch, or the epoch-set key of the shards.
    pub fn epoch(&self) -> u64 {
        match self {
            Stack::Flat(qe) => qe.snapshot(None).expect("default method").epoch(),
            Stack::Sharded(se) => se.snapshots().epoch_key(),
        }
    }
}

/// What the client read off one response.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Reply {
    pub items: Vec<Hit>,
    pub matched: usize,
    /// Next-page token; empty when the page exhausts the result set.
    pub token: String,
    /// Epoch (flat) or epoch-set key (sharded) the page was served from.
    pub epoch: u64,
    /// Shards scanned / in the plan (sharded only).
    pub shards: (usize, usize),
}

/// One closed-loop client: its buffers are reused across requests, as a
/// caller holding a `QueryScratch` and a `PageBuf` would.
pub struct Client<'a> {
    stack: &'a Stack,
    scratch: QueryScratch,
    out: PageBuf,
    pub reply: Reply,
}

impl<'a> Client<'a> {
    pub fn new(stack: &'a Stack) -> Self {
        Client {
            stack,
            scratch: QueryScratch::new(),
            out: PageBuf::new(),
            reply: Reply::default(),
        }
    }

    /// Serves one request end to end; the response is left in
    /// `self.reply`. Any refusal or error is the request's failure.
    pub fn serve(&mut self, req: &Request) -> Result<(), String> {
        let context = |e: String| format!("{}: {e}", req.text);
        let q: Query = req.text.parse().map_err(|e| context(format!("{e}")))?;
        match self.stack {
            Stack::Flat(qe) => {
                serve_flat(qe, &q, &mut self.scratch, &mut self.out, &mut self.reply)
                    .map_err(context)
            }
            Stack::Sharded(se) => {
                let cursor = match &req.cursor {
                    None => None,
                    Some(token) => Some(
                        token
                            .parse::<ShardCursor>()
                            .map_err(|e| context(e.to_string()))?,
                    ),
                };
                let page = se
                    .query(&q, cursor.as_ref())
                    .map_err(|e| context(e.to_string()))?;
                read_sharded_page(&page, &mut self.reply);
                Ok(())
            }
        }
    }

    /// Turns a shape into a request, serving page 1 first when the shape
    /// asks for page 2. A base page with nothing after it degrades to the
    /// base request.
    pub fn mint(&mut self, shape: &Shape) -> Request {
        let mut req = Request {
            text: shape.text.clone(),
            cursor: None,
            after: None,
            kind: shape.kind,
        };
        if !shape.page2 {
            return req;
        }
        self.serve(&req)
            .expect("page 1 of a generated shape serves");
        if self.reply.token.is_empty() {
            return req;
        }
        req.after = self.reply.items.last().map(|h| h.id);
        match self.stack {
            Stack::Flat(_) => req.text = format!("{},cursor={}", req.text, self.reply.token),
            Stack::Sharded(_) => req.cursor = Some(self.reply.token.clone()),
        }
        req
    }

    /// Mints every shape of a mix and lays the stream out as requests.
    pub fn requests(&mut self, mix: &Mix) -> Vec<Request> {
        let minted: Vec<Request> = mix.shapes.iter().map(|s| self.mint(s)).collect();
        mix.stream
            .iter()
            .map(|&i| minted[i as usize].clone())
            .collect()
    }
}

/// The flat serve path: `vs=` requests go through compare mode, the rest
/// through the buffer-reusing `query_with`.
pub fn serve_flat(
    qe: &QueryEngine,
    q: &Query,
    scratch: &mut QueryScratch,
    out: &mut PageBuf,
    reply: &mut Reply,
) -> Result<(), String> {
    reply.shards = (1, 1);
    if q.vs.is_some() {
        let cmp = qe.compare(q).map_err(|e| e.to_string())?;
        // The joined rank columns are the payload of a compare page.
        std::hint::black_box(&cmp.rows);
        read_page(&cmp.page, reply);
        return Ok(());
    }
    qe.query_with(q, scratch, out).map_err(|e| e.to_string())?;
    read_page_buf(out, reply);
    Ok(())
}

/// Reads an owned page (compare mode, `query_batch`) off into `reply`.
pub fn read_page(page: &rankengine::Page, reply: &mut Reply) {
    reply.items.clear();
    reply.items.extend_from_slice(&page.items);
    reply.matched = page.matched;
    reply.epoch = page.epoch;
    reply.token.clear();
    if let Some(c) = page.next {
        c.encode_into(&mut reply.token);
    }
}

pub fn read_page_buf(out: &mut PageBuf, reply: &mut Reply) {
    reply.items.clear();
    reply.items.extend_from_slice(out.items());
    reply.matched = out.matched();
    reply.epoch = out.epoch();
    reply.token.clear();
    if let Some(token) = out.next_token() {
        reply.token.push_str(token);
    }
}

pub fn read_sharded_page(page: &rankengine::ShardedPage, reply: &mut Reply) {
    use std::fmt::Write as _;
    reply.items.clear();
    reply.items.extend_from_slice(&page.items);
    reply.matched = page.matched;
    reply.epoch = page.epoch_key;
    reply.shards = (page.shards_scanned, page.shards_total);
    reply.token.clear();
    if let Some(c) = &page.next {
        write!(reply.token, "{c}").expect("writing to a String cannot fail");
    }
}
