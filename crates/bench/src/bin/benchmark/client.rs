//! The load generator's side of the wire: one blocking connection whose
//! codec and round trip can be timed apart.
//!
//! `nlidb_serve::Client::request` fuses encode, round trip and decode;
//! the traced replay needs the three as separate spans, so this client
//! keeps them separate and the load phase uses the same code.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use nlidb_json::{decode_frame, encode_frame, FromJson, ToJson};
use nlidb_serve::{AskItem, Op as WireOp, Request, Response};

use crate::workload::{Op, Plan};

/// Tenant every benchmark request is sent under.
pub const TENANT: &str = "bench";

/// One client connection, one request in flight.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connects to the server under test.
    pub fn connect_to(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(
            writer
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Writes one encoded frame and reads the response line back.
    pub fn exchange_frame(&mut self, frame: &str) -> Result<&str, String> {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(&self.line),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// Encode, round trip and decode in one call.
    pub fn exchange(&mut self, req: &Request) -> Result<Response, String> {
        let frame = encode_frame(&req.to_json());
        let line = self.exchange_frame(&frame)?;
        parse_response(line)
    }
}

/// The wire request for one stream op.
pub fn wire_request(plan: &Plan, id: i64, op: &Op) -> Result<Request, String> {
    let item = |q: usize| -> Result<AskItem, String> {
        let question = plan
            .questions
            .get(q)
            .ok_or_else(|| format!("no question {q}"))?;
        let fingerprint = *plan
            .fingerprints
            .get(question.table)
            .ok_or_else(|| format!("no table for {q}"))?;
        Ok(AskItem {
            fingerprint,
            question: question.tokens.clone(),
            guided: question.guided,
        })
    };
    let op = match op {
        Op::Register(t) => WireOp::RegisterTable {
            table: plan
                .tables
                .get(*t)
                .map(|t| (**t).clone())
                .ok_or_else(|| format!("no table {t}"))?,
        },
        Op::Ask(q) => WireOp::Ask(item(*q)?),
        Op::Batch(qs) => WireOp::Batch {
            items: qs.iter().map(|&q| item(q)).collect::<Result<_, _>>()?,
        },
    };
    Ok(Request::new(id, TENANT, op))
}

/// Decodes one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let json = decode_frame(line).map_err(|e| format!("bad response frame: {e}"))?;
    Response::from_json(&json).map_err(|e| format!("bad response: {}", e.message()))
}
