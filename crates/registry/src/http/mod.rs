//! Minimal HTTP/1.1 wire layer for the Registry V2 protocol.
//!
//! The paper's downloader "calls the Docker registry API directly" — i.e.
//! speaks HTTP to `registry-1.docker.io`. This module provides that
//! transport over real TCP sockets, from scratch: a request/response codec
//! ([`wire`]), a threaded registry server exposing the V2 endpoints
//! ([`server`]), and a client the downloader can drive ([`client`]).
//!
//! Supported surface (what `docker pull` and the study need):
//!
//! * `GET /v2/` — API version check (and the 401 + `WWW-Authenticate`
//!   token dance for auth-required repositories),
//! * `GET /v2/<name>/manifests/<reference>` — manifest by tag,
//! * `GET /v2/<name>/blobs/<digest>` — layer blobs,
//! * `GET /v2/<name>/tags/list` — tag listing (JSON).
//!
//! Bodies use `Content-Length` framing only (no chunked encoding) — the
//! registry always knows blob sizes up front, as the real one does.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, RemoteRegistry, RetryStats};
pub use server::{BackendError, MirrorBackend, RegistryServer, DEFAULT_MAX_CONNS};
pub use wire::{read_request, read_response, Request, Response, WireError};
