//! HTTP/1.1 message codec (requests and responses, Content-Length framing).

use std::fmt::Write as _;
use std::io::{BufRead, Read as _, Write};
use std::sync::Arc;

/// Maximum accepted header block (defense against unbounded reads).
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted response body (larger than any layer this simulation
/// stores) — the client-side ceiling.
const MAX_BODY_BYTES: usize = 1 << 31;
/// Maximum declared request body. The server is GET-only, so anything
/// larger is refused before a byte of it is buffered.
const MAX_REQUEST_BODY_BYTES: usize = 64 * 1024;
/// A body up to this size is copied behind its head and leaves in the same
/// write; a larger one gets a write of its own.
const ONE_WRITE_BODY_BYTES: usize = 16 * 1024;

/// Wire-level errors.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    /// Malformed start line or header.
    Malformed(&'static str),
    /// Header block exceeded [`MAX_HEADER_BYTES`].
    TooLarge,
    /// Declared body length exceeds what this end accepts; nothing was
    /// allocated for it and none of it was read.
    BodyTooLarge,
    /// Peer closed before a complete message arrived.
    UnexpectedEof,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Malformed(what) => write!(f, "malformed http: {what}"),
            WireError::TooLarge => f.write_str("http header block too large"),
            WireError::BodyTooLarge => f.write_str("http body too large"),
            WireError::UnexpectedEof => f.write_str("connection closed mid-message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// An HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Path including query string, e.g. `/v2/nginx/manifests/latest`.
    pub target: String,
    /// Lower-cased header names.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request.
    pub fn get(target: &str) -> Request {
        Request { method: "GET".into(), target: target.into(), headers: Vec::new(), body: Vec::new() }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of a header (name is case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serializes onto a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let start = format!("{} {} HTTP/1.1\r\n", self.method, self.target);
        write_message(w, start, &self.headers, self.body.len(), &self.body)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// Writes one message: `start` line, headers and a `content-length` of
/// `declared` in one buffer, then `body` — in the same `write_all` when it
/// is small, in a second one when it is not. An unbuffered socket so sees
/// one or two writes per message, never one per header fragment.
fn write_message(
    w: &mut impl Write,
    start: String,
    headers: &[(String, String)],
    declared: usize,
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = start;
    for (n, v) in headers {
        let _ = write!(head, "{n}: {v}\r\n");
    }
    let _ = write!(head, "content-length: {declared}\r\n\r\n");
    let mut head = head.into_bytes();
    if body.len() <= ONE_WRITE_BODY_BYTES {
        head.extend_from_slice(body);
        w.write_all(&head)?;
    } else {
        w.write_all(&head)?;
        w.write_all(body)?;
    }
    w.flush()
}

/// An HTTP response. The body is shared, not owned: a server answers with
/// the very `Arc` its blob store or cache holds, so a body is never copied
/// on its way to the socket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub reason: String,
    pub headers: Vec<(String, String)>,
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// Builds a response with a body (a `Vec<u8>` or an `Arc` of one).
    pub fn new(status: u16, body: impl Into<Arc<Vec<u8>>>) -> Response {
        let reason = match status {
            200 => "OK",
            401 => "Unauthorized",
            404 => "Not Found",
            400 => "Bad Request",
            405 => "Method Not Allowed",
            413 => "Content Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        Response { status, reason: reason.into(), headers: Vec::new(), body: body.into() }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of a header.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Serializes onto a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        self.write_truncated_to(w, self.body.len())
    }

    /// Serializes a *lying* response: headers promise the full body
    /// (`content-length: body.len()`) but only the first `keep` bytes are
    /// written. The fault-injecting server uses this to model a connection
    /// cut mid-transfer; readers see [`WireError::UnexpectedEof`].
    pub fn write_truncated_to(&self, w: &mut impl Write, keep: usize) -> std::io::Result<()> {
        let start = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason);
        let kept = &self.body[..keep.min(self.body.len())];
        write_message(w, start, &self.headers, self.body.len(), kept)
    }
}

/// Reads one line, without its `\n` / `\r\n`, charging its bytes to the
/// header block's `budget`.
fn read_line(r: &mut impl BufRead, budget: &mut usize) -> Result<String, WireError> {
    let mut line = Vec::new();
    // One byte past the budget, so a line that ends exactly on it and one
    // that runs over it read differently.
    r.take(*budget as u64 + 1).read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Err(WireError::UnexpectedEof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    *budget = budget.checked_sub(line.len()).ok_or(WireError::TooLarge)?;
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| WireError::Malformed("non-utf8 header"))
}

fn read_headers(
    r: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Vec<(String, String)>, WireError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line.split_once(':').ok_or(WireError::Malformed("header colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// Reads the body `headers` declare, refusing one over `max` before
/// allocating for it.
fn read_body(
    r: &mut impl BufRead,
    headers: &[(String, String)],
    max: usize,
) -> Result<Vec<u8>, WireError> {
    let len: usize = header(headers, "content-length")
        .map(|v| v.parse().map_err(|_| WireError::Malformed("content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > max {
        return Err(WireError::BodyTooLarge);
    }
    // Straight into reserved, unzeroed capacity: each byte is written once.
    let mut body = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(WireError::UnexpectedEof);
    }
    Ok(body)
}

/// Reads one request from a connection's reader. The caller owns the
/// buffering so that whatever arrived past this request (a pipelined
/// successor) is still there for the next call.
pub fn read_request(r: &mut impl BufRead) -> Result<Request, WireError> {
    let mut budget = MAX_HEADER_BYTES;
    let start = read_line(r, &mut budget)?;
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or(WireError::Malformed("method"))?.to_string();
    let target = parts.next().ok_or(WireError::Malformed("target"))?.to_string();
    let version = parts.next().ok_or(WireError::Malformed("version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("version"));
    }
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers, MAX_REQUEST_BODY_BYTES)?;
    Ok(Request { method, target, headers, body })
}

/// Reads one response from a connection's reader (buffering is the
/// caller's, as for [`read_request`]).
pub fn read_response(r: &mut impl BufRead) -> Result<Response, WireError> {
    let mut budget = MAX_HEADER_BYTES;
    let start = read_line(r, &mut budget)?;
    let mut parts = start.splitn(3, ' ');
    let version = parts.next().ok_or(WireError::Malformed("version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed("version"));
    }
    let status: u16 = parts
        .next()
        .ok_or(WireError::Malformed("status"))?
        .parse()
        .map_err(|_| WireError::Malformed("status"))?;
    let reason = parts.next().unwrap_or("").to_string();
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers, MAX_BODY_BYTES)?;
    Ok(Response { status, reason, headers, body: Arc::new(body) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::get("/v2/nginx/manifests/latest")
            .with_header("Accept", "application/vnd.docker.distribution.manifest.v2+json")
            .with_header("Authorization", "Bearer tok123");
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let back = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(back.method, "GET");
        assert_eq!(back.target, "/v2/nginx/manifests/latest");
        assert_eq!(back.header("accept").unwrap(), "application/vnd.docker.distribution.manifest.v2+json");
        assert_eq!(back.header("AUTHORIZATION").unwrap(), "Bearer tok123");
        assert!(back.body.is_empty());
    }

    #[test]
    fn response_roundtrip_with_body() {
        let resp = Response::new(200, b"{\"ok\":true}".to_vec()).with_header("Content-Type", "application/json");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(back.status, 200);
        assert_eq!(*back.body, b"{\"ok\":true}");
        assert_eq!(back.header("content-type").unwrap(), "application/json");
    }

    #[test]
    fn binary_body_survives() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let resp = Response::new(200, payload.clone());
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(*back.body, payload);
    }

    #[test]
    fn rejects_malformed_start_line() {
        assert!(matches!(read_request(&mut &b"NOPE\r\n\r\n"[..]), Err(WireError::Malformed(_))));
        assert!(matches!(
            read_request(&mut &b"GET /x SPDY/3\r\n\r\n"[..]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_bad_header() {
        let raw = b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
        assert!(matches!(read_request(&mut &raw[..]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn eof_mid_body_detected() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nshort";
        assert!(matches!(read_response(&mut &raw[..]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn empty_stream_is_eof() {
        assert!(matches!(read_request(&mut &b""[..]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn header_budget_enforced() {
        let mut raw = b"GET / HTTP/1.1\r\nx: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 64 * 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(read_request(&mut raw.as_slice()), Err(WireError::TooLarge)));
    }

    #[test]
    fn truncated_write_reads_as_eof() {
        let resp = Response::new(200, vec![7u8; 1000]);
        let mut buf = Vec::new();
        resp.write_truncated_to(&mut buf, 300).unwrap();
        assert!(matches!(read_response(&mut buf.as_slice()), Err(WireError::UnexpectedEof)));
    }

    /// Counts the `write` calls a message costs an unbuffered writer.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_message_is_one_write_or_two() {
        let headed = |body: Vec<u8>| {
            Response::new(200, body)
                .with_header("content-type", "application/octet-stream")
                .with_header("docker-content-digest", "sha256:00")
        };
        let mut w = CountingWriter::default();
        headed(vec![1; ONE_WRITE_BODY_BYTES]).write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1, "head and a small body leave together");
        assert_eq!(read_response(&mut w.bytes.as_slice()).unwrap().body.len(), ONE_WRITE_BODY_BYTES);

        let mut w = CountingWriter::default();
        headed(vec![2; ONE_WRITE_BODY_BYTES + 1]).write_to(&mut w).unwrap();
        assert_eq!(w.writes, 2, "head, then a large body uncopied");

        let mut w = CountingWriter::default();
        Request::get("/v2/").with_header("authorization", "Bearer t").write_to(&mut w).unwrap();
        assert_eq!(w.writes, 1);
    }

    #[test]
    fn oversize_request_body_is_refused_before_it_is_read() {
        // The declared 2 GiB never arrives: a reader that allocated or
        // waited for it would not return `BodyTooLarge` from this input.
        let raw = b"GET /v2/ HTTP/1.1\r\ncontent-length: 2147483647\r\n\r\n";
        assert!(matches!(read_request(&mut &raw[..]), Err(WireError::BodyTooLarge)));
        let fits = format!("GET /v2/ HTTP/1.1\r\ncontent-length: {MAX_REQUEST_BODY_BYTES}\r\n\r\n");
        assert!(matches!(read_request(&mut fits.as_bytes()), Err(WireError::UnexpectedEof)));
        // The same length is an ordinary (if truncated) layer to a client.
        let resp = b"HTTP/1.1 200 OK\r\ncontent-length: 70000\r\n\r\nshort";
        assert!(matches!(read_response(&mut &resp[..]), Err(WireError::UnexpectedEof)));
    }

    #[test]
    fn header_budget_is_exact_and_spans_lines() {
        // "GET / HTTP/1.1\r" + "x: aaa…\r" + "\r" fill the budget to the byte.
        let fill = MAX_HEADER_BYTES - "GET / HTTP/1.1\r".len() - "x: \r".len() - "\r".len();
        let block = |n: usize| format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "a".repeat(n));
        assert!(read_request(&mut block(fill).as_bytes()).is_ok());
        assert!(matches!(read_request(&mut block(fill + 1).as_bytes()), Err(WireError::TooLarge)));
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\n";
        let resp = read_response(&mut &raw[..]).unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.body.is_empty());
    }
}
