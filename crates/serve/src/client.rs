//! Blocking client for the serve protocol — used by the `locec serve`
//! control verbs, the benchmark's control connection, and tests.

use std::net::TcpStream;

use locec_cluster::frame::{read_frame, write_frame, FrameType};
use locec_cluster::RejectReason;

use crate::protocol::{
    CommunityQuery, CommunityReply, EdgeQuery, EdgeReply, Reload, ReloadReply, ServeHello,
    ServeWelcome, StatusReply, TopKQuery, TopKReply, SERVE_PROTOCOL_VERSION,
};
use crate::ServeError;

/// One authenticated connection to a serve daemon.
pub struct ServeClient {
    stream: TcpStream,
    welcome: ServeWelcome,
}

impl ServeClient {
    /// Connects and performs the hello/welcome handshake.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let hello = ServeHello {
            protocol_version: SERVE_PROTOCOL_VERSION,
        };
        write_frame(&mut stream, FrameType::ServeHello, &hello.encode())?;
        match read_frame(&mut stream)? {
            (FrameType::ServeWelcome, payload) => {
                let welcome = ServeWelcome::decode(&payload)?;
                Ok(ServeClient { stream, welcome })
            }
            (FrameType::Reject, payload) => {
                let reason = payload
                    .first()
                    .and_then(|&b| RejectReason::from_u8(b))
                    .unwrap_or(RejectReason::Malformed);
                Err(ServeError::Rejected(reason))
            }
            (other, _) => Err(ServeError::Unexpected {
                expected: "serve-welcome",
                got: other,
            }),
        }
    }

    /// The shape the daemon reported at handshake time.
    pub fn welcome(&self) -> &ServeWelcome {
        &self.welcome
    }

    /// Sends one request frame and reads the matching reply frame.
    fn roundtrip(
        &mut self,
        request: FrameType,
        payload: &[u8],
        expect: FrameType,
        expected_name: &'static str,
    ) -> Result<Vec<u8>, ServeError> {
        write_frame(&mut self.stream, request, payload)?;
        match read_frame(&mut self.stream)? {
            (ft, reply) if ft == expect => Ok(reply),
            (other, _) => Err(ServeError::Unexpected {
                expected: expected_name,
                got: other,
            }),
        }
    }

    /// classify-edge(u, v).
    pub fn classify_edge(&mut self, u: u32, v: u32) -> Result<EdgeReply, ServeError> {
        let payload = EdgeQuery { u, v }.encode();
        let reply = self.roundtrip(
            FrameType::EdgeQuery,
            &payload,
            FrameType::EdgeReply,
            "edge-reply",
        )?;
        EdgeReply::decode(&reply)
    }

    /// community-of(node).
    pub fn communities_of(&mut self, node: u32) -> Result<CommunityReply, ServeError> {
        let payload = CommunityQuery { node }.encode();
        let reply = self.roundtrip(
            FrameType::CommunityQuery,
            &payload,
            FrameType::CommunityReply,
            "community-reply",
        )?;
        CommunityReply::decode(&reply)
    }

    /// top-k-intimate(node, k).
    pub fn top_k_intimate(&mut self, node: u32, k: u32) -> Result<TopKReply, ServeError> {
        let payload = TopKQuery { node, k }.encode();
        let reply = self.roundtrip(
            FrameType::TopKQuery,
            &payload,
            FrameType::TopKReply,
            "top-k-reply",
        )?;
        TopKReply::decode(&reply)
    }

    /// status — serving shape, per-verb counters, uptime.
    pub fn status(&mut self) -> Result<StatusReply, ServeError> {
        let reply = self.roundtrip(
            FrameType::StatusQuery,
            &[],
            FrameType::StatusReply,
            "status-reply",
        )?;
        StatusReply::decode(&reply)
    }

    /// Hot-swap the serving division (and optionally the world).
    pub fn reload(
        &mut self,
        world_path: Option<&str>,
        division_path: &str,
    ) -> Result<ReloadReply, ServeError> {
        let payload = Reload {
            world_path: world_path.map(str::to_owned),
            division_path: division_path.to_owned(),
        }
        .encode();
        let reply = self.roundtrip(
            FrameType::Reload,
            &payload,
            FrameType::ReloadReply,
            "reload-reply",
        )?;
        ReloadReply::decode(&reply)
    }

    /// Asks the daemon to shut down gracefully and closes the connection.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        write_frame(&mut self.stream, FrameType::Shutdown, &[])?;
        Ok(())
    }
}
