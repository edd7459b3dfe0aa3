//! Just enough HTTP/1.1 over [`std::net`] for the control plane.
//!
//! The vendored-dependency constraint rules out hyper/axum, and the
//! surface we need is tiny: parse one request per connection (method,
//! path, `Content-Length` body), write one response, close. Responses are
//! either fixed-length (`Content-Length`) or streamed
//! (`Transfer-Encoding: chunked`, via [`ChunkedWriter`]) — the latter is
//! what lets `GET /runs/:id/stream` deliver per-tick observations while a
//! simulation is still running.
//!
//! Limits are deliberate: request heads over [`MAX_HEAD`] bytes and
//! bodies over [`MAX_BODY`] bytes are rejected with `413` rather than
//! buffered, and sockets carry read/write timeouts so a stalled peer
//! cannot pin a connection thread forever.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Maximum accepted size of the request line plus headers.
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY: usize = 64 * 1024;

/// One parsed request. Only what the router consumes: everything else
/// (headers we do not key on, the HTTP version) is validated just enough
/// to find the body and then dropped.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: String,
}

/// Why a request could not be served at the transport layer.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (peer vanished, timeout): nothing to send
    /// back. The payload is carried for `Debug` diagnostics only.
    Io(#[allow(dead_code)] io::Error),
    /// Protocol violation worth answering: `(status, message)`.
    Bad(u16, String),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn bad(status: u16, msg: impl Into<String>) -> HttpError {
    HttpError::Bad(status, msg.into())
}

/// Read and parse one request from the stream — a socket in the server, any
/// byte source in a test. Hostile bytes are an `Err`, never a panic.
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(bad(413, format!("request head exceeds {MAX_HEAD} bytes")));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            // Peer closed before a full head arrived; includes the empty
            // probe connections health checks and shutdown wakes send.
            return Err(HttpError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad(400, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad(400, "empty request line"))?.to_string();
    let path = parts.next().ok_or_else(|| bad(400, "request line names no path"))?.to_string();

    let mut content_length = 0usize;
    for line in lines {
        if let Some((key, value)) = line.split_once(':') {
            if key.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| bad(400, format!("bad Content-Length `{}`", value.trim())))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad(413, format!("request body exceeds {MAX_BODY} bytes")));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| bad(400, "request body is not UTF-8"))?;

    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write a complete fixed-length response and flush. Every response closes
/// the connection — one request per connection keeps the threading model
/// trivially correct at the price of a TCP handshake per call, which is
/// nothing next to a simulation run.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// An in-flight `Transfer-Encoding: chunked` response. Each [`chunk`] is
/// flushed immediately so a streaming client observes ticks as they
/// complete, not when the run ends.
///
/// [`chunk`]: ChunkedWriter::chunk
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and switch the connection to chunked mode.
    pub fn start(stream: &'a mut TcpStream, content_type: &str) -> io::Result<ChunkedWriter<'a>> {
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    pub fn chunk(&mut self, data: &str) -> io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data.as_bytes())?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream with the zero-length chunk.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
