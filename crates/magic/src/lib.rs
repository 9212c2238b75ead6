//! File-type identification by magic number, in the spirit of `file(1)`.
//!
//! The paper's analyzer records each file's "file type (identified by magic
//! number)" (§III-C). This crate reproduces that mechanism over the study's
//! taxonomy: content signatures first (a forged-but-valid ELF header *is*
//! an ELF file regardless of its name), then shebang interpreters, then
//! name/extension conventions, and finally text-encoding analysis for the
//! document classes. The synthetic generator forges content with real
//! signatures, so classification here independently recovers what the
//! generator intended — exactly like running `file` over extracted layers.

use dhub_model::FileKind;

/// Classifies a file from its path and contents.
pub fn classify(path: &str, data: &[u8]) -> FileKind {
    if data.is_empty() {
        return FileKind::Empty;
    }
    if let Some(k) = by_signature(data) {
        return k;
    }
    if let Some(k) = by_shebang(data) {
        return k;
    }
    if let Some(k) = by_name(path) {
        return k;
    }
    by_text_content(data)
}

/// Content signatures, checked in order of decreasing specificity.
fn by_signature(data: &[u8]) -> Option<FileKind> {
    use FileKind::*;
    let d = data;
    let starts = |sig: &[u8]| d.len() >= sig.len() && &d[..sig.len()] == sig;

    // Executables and object code.
    if starts(b"\x7fELF") {
        return Some(Elf);
    }
    if d.len() >= 4 {
        let be = u32::from_be_bytes([d[0], d[1], d[2], d[3]]);
        if matches!(be, 0xFEED_FACE | 0xFEED_FACF | 0xCEFA_EDFE | 0xCFFA_EDFE) {
            return Some(MachO);
        }
        if be == 0xCAFE_BABE && d.len() >= 8 {
            // Shared magic: Java class files carry a version ≥ 45 in bytes
            // 6..8; fat Mach-O binaries have a small architecture count.
            let minor_major = u32::from_be_bytes([d[4], d[5], d[6], d[7]]);
            return Some(if (minor_major & 0xFFFF) >= 45 { JavaClass } else { MachO });
        }
    }
    if starts(b"MZ") {
        return Some(PeExecutable);
    }
    // COFF object (i386: 0x014c, amd64: 0x8664, little-endian on disk).
    if d.len() >= 20 && (d[0] == 0x4c && d[1] == 0x01 || d[0] == 0x64 && d[1] == 0x86) {
        return Some(Coff);
    }
    // Python byte-compiled: CPython magics end with \r\n.
    if d.len() >= 4 && d[2] == b'\r' && d[3] == b'\n' {
        return Some(PythonBytecode);
    }
    // Compiled terminfo: magic 0432 (0x011A) little-endian.
    if d.len() >= 2 && d[0] == 0x1A && d[1] == 0x01 {
        return Some(TerminfoCompiled);
    }
    if starts(b"!<arch>\n") {
        // Debian packages are ar archives whose first member is
        // "debian-binary"; plain ar archives are static libraries.
        return Some(if d.len() > 21 && d[8..].starts_with(b"debian-binary") {
            DebPackage
        } else {
            Library
        });
    }
    if starts(b"\xed\xab\xee\xdb") {
        return Some(RpmPackage);
    }

    // Archives.
    if starts(b"\x1f\x8b") || starts(b"PK\x03\x04") || starts(b"PK\x05\x06") {
        return Some(ZipGzip);
    }
    if starts(b"BZh") {
        return Some(Bzip2);
    }
    if starts(b"\xfd7zXZ\x00") {
        return Some(XzArchive);
    }
    if d.len() > 262 && &d[257..262] == b"ustar" {
        return Some(TarArchive);
    }

    // Image data.
    if starts(b"\x89PNG\r\n\x1a\n") {
        return Some(Png);
    }
    if starts(b"\xff\xd8\xff") {
        return Some(Jpeg);
    }
    if starts(b"GIF87a") || starts(b"GIF89a") {
        return Some(Gif);
    }

    // Video.
    if starts(b"RIFF") && d.len() >= 12 && &d[8..12] == b"AVI " {
        return Some(Video);
    }
    if starts(b"\x00\x00\x01\xba") || starts(b"\x00\x00\x01\xb3") {
        return Some(Video);
    }

    // Databases.
    if starts(b"SQLite format 3\0") {
        return Some(SqliteDb);
    }
    // Berkeley DB: magic 0x00053162 (btree) or 0x00061561 (hash) at offset 12.
    if d.len() >= 16 {
        let m = u32::from_le_bytes([d[12], d[13], d[14], d[15]]);
        if m == 0x0005_3162 || m == 0x0006_1561 {
            return Some(BerkeleyDb);
        }
    }
    // PostgreSQL custom-format dumps (the paper's "other DB" bucket).
    if starts(b"PGDMP") {
        return Some(OtherDb);
    }
    // MySQL MyISAM index/data files.
    if starts(b"\xfe\xfe\x07") || starts(b"\xfe\xfe\x08") || starts(b"\xfe\x01\x00\x00") {
        return Some(MysqlDb);
    }

    // Documents with signatures.
    if starts(b"%PDF") || starts(b"%!PS") {
        return Some(PdfPs);
    }
    None
}

/// Shebang interpreters (`#!/usr/bin/env python`, `#!/bin/sh`, ...).
fn by_shebang(data: &[u8]) -> Option<FileKind> {
    use FileKind::*;
    if !data.starts_with(b"#!") {
        return None;
    }
    let line_end = data.iter().position(|&b| b == b'\n').unwrap_or(data.len().min(128));
    let line = std::str::from_utf8(&data[..line_end]).ok()?;
    // Interpreter is the last path component, or the argument of env.
    let mut parts = line[2..].split_whitespace();
    let first = parts.next()?;
    let interp = if first.ends_with("/env") || first == "env" {
        parts.next().unwrap_or("")
    } else {
        first.rsplit('/').next().unwrap_or(first)
    };
    let interp = interp.trim_start_matches('-');
    // Strip version suffixes: python3.9 → python.
    let base: String = interp.chars().take_while(|c| c.is_ascii_alphabetic()).collect();
    Some(match base.as_str() {
        "python" => PythonScript,
        "sh" | "bash" | "dash" | "ash" | "zsh" | "ksh" => ShellScript,
        "perl" => PerlScript,
        "ruby" => RubyScript,
        "php" => PhpScript,
        "node" | "nodejs" => NodeScript,
        "awk" | "gawk" | "mawk" => AwkScript,
        "tclsh" | "wish" | "tcl" => TclScript,
        _ => OtherScript,
    })
}

/// Name and extension conventions (the classifier of last resort before
/// text analysis; `file(1)` likewise uses names for Makefiles and friends).
fn by_name(path: &str) -> Option<FileKind> {
    use FileKind::*;
    let name = path.rsplit('/').next().unwrap_or(path);
    let lower = name.to_ascii_lowercase();
    match lower.as_str() {
        "makefile" | "gnumakefile" | "makefile.am" | "makefile.in" => return Some(Makefile),
        _ => {}
    }
    let ext = lower.rsplit_once('.').map(|(_, e)| e)?;
    Some(match ext {
        "c" | "cc" | "cpp" | "cxx" | "h" | "hh" | "hpp" => CSource,
        "pm" => Perl5Module,
        "rb" => RubyModule,
        "pas" | "pp" => PascalSource,
        "f" | "f77" | "f90" | "f95" | "for" => FortranSource,
        "bas" => ApplesoftBasic,
        "lisp" | "lsp" | "scm" | "el" => LispScheme,
        "py" => PythonScript,
        "awk" => AwkScript,
        "pl" => PerlScript,
        "php" => PhpScript,
        "mk" => Makefile,
        "m4" => M4Macro,
        "js" | "mjs" => NodeScript,
        "tcl" => TclScript,
        "sh" | "bash" => ShellScript,
        "tex" | "sty" | "cls" => LatexDoc,
        "svg" => Svg,
        "html" | "htm" | "xhtml" | "xml" => XmlHtml,
        "frm" | "myd" | "myi" | "ibd" => MysqlDb,
        _ => return None,
    })
}

/// Text-encoding analysis for unclassified content, the bottom of the
/// document branch in Fig. 19.
fn by_text_content(data: &[u8]) -> FileKind {
    use FileKind::*;
    // Inspect at most a prefix, as file(1) does.
    let sample = &data[..data.len().min(8192)];

    // Markup before encoding: XML/HTML documents are also valid text.
    let head = &sample[..sample.len().min(256)];
    if let Ok(s) = std::str::from_utf8(head) {
        let t = s.trim_start();
        let tl = t.get(..t.len().min(64)).unwrap_or(t).to_ascii_lowercase();
        if tl.starts_with("<?xml") || tl.starts_with("<!doctype") || tl.starts_with("<html") || tl.starts_with("<svg") {
            return if tl.starts_with("<svg") { Svg } else { XmlHtml };
        }
        if t.starts_with("\\documentclass") || t.starts_with("\\usepackage") {
            return LatexDoc;
        }
    }

    // One branch-free pass LLVM vectorises: OR every byte together (the
    // high bit says whether any byte is >= 0x80) and OR a flag per control
    // byte — below 0x20 and none of \t \n \x0c \r.
    let (mut all, mut control) = (0u8, 0u8);
    for &b in sample {
        all |= b;
        control |= ((b < 0x20) & (b != b'\n') & (b != b'\r') & (b != b'\t') & (b != 0x0c)) as u8;
    }
    let (has_high, has_control) = (all >= 0x80, control != 0);
    if has_control {
        return OtherBinary;
    }
    if !has_high {
        return AsciiText;
    }
    if std::str::from_utf8(sample).is_ok() || utf8_truncation_ok(sample) {
        Utf8Text
    } else {
        Iso8859Text
    }
}

/// A sample cut mid-codepoint is still UTF-8: valid up to the last 3 bytes.
fn utf8_truncation_ok(sample: &[u8]) -> bool {
    match std::str::from_utf8(sample) {
        Ok(_) => true,
        Err(e) => e.error_len().is_none() && sample.len() - e.valid_up_to() < 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use FileKind::*;

    #[test]
    fn empty_file() {
        assert_eq!(classify("anything", b""), Empty);
    }

    #[test]
    fn binaries_by_magic() {
        assert_eq!(classify("bin/ls", b"\x7fELF\x02\x01\x01..."), Elf);
        assert_eq!(classify("x", b"MZ\x90\x00"), PeExecutable);
        assert_eq!(classify("x", &[0xFE, 0xED, 0xFA, 0xCE, 0, 0, 0, 0]), MachO);
        assert_eq!(classify("x", &[0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 52]), JavaClass);
        assert_eq!(classify("x", &[0xCA, 0xFE, 0xBA, 0xBE, 0x00, 0x00, 0x00, 2]), MachO);
        assert_eq!(classify("m.pyc", &[0x6f, 0x0d, 0x0d, 0x0a, 0, 0, 0, 0]), PythonBytecode);
        assert_eq!(classify("x", &[0x1A, 0x01, 0, 0]), TerminfoCompiled);
        assert_eq!(classify("a.deb", b"!<arch>\ndebian-binary   xxx"), DebPackage);
        assert_eq!(classify("libx.a", b"!<arch>\nfoo.o           xxx"), Library);
        assert_eq!(classify("p.rpm", &[0xed, 0xab, 0xee, 0xdb, 3, 0]), RpmPackage);
        let mut coff = vec![0x64u8, 0x86];
        coff.extend([0u8; 30]);
        assert_eq!(classify("x.obj", &coff), Coff);
    }

    #[test]
    fn archives_by_magic() {
        assert_eq!(classify("a.gz", &[0x1f, 0x8b, 8, 0]), ZipGzip);
        assert_eq!(classify("a.zip", b"PK\x03\x04...."), ZipGzip);
        assert_eq!(classify("a.bz2", b"BZh91AY"), Bzip2);
        assert_eq!(classify("a.xz", b"\xfd7zXZ\x00\x00"), XzArchive);
        let mut tar = vec![0u8; 600];
        tar[257..262].copy_from_slice(b"ustar");
        assert_eq!(classify("a.tar", &tar), TarArchive);
    }

    #[test]
    fn images_and_video() {
        assert_eq!(classify("a.png", b"\x89PNG\r\n\x1a\n...."), Png);
        assert_eq!(classify("a.jpg", &[0xff, 0xd8, 0xff, 0xe0]), Jpeg);
        assert_eq!(classify("a.gif", b"GIF89a...."), Gif);
        assert_eq!(classify("a.avi", b"RIFF\x00\x00\x00\x00AVI LIST"), Video);
        assert_eq!(classify("a.mpg", &[0x00, 0x00, 0x01, 0xba, 0x44]), Video);
        assert_eq!(classify("img.svg", b"<svg xmlns=\"http://www.w3.org/2000/svg\">"), Svg);
    }

    #[test]
    fn databases() {
        assert_eq!(classify("db", b"SQLite format 3\0...."), SqliteDb);
        let mut bdb = vec![0u8; 20];
        bdb[12..16].copy_from_slice(&0x0005_3162u32.to_le_bytes());
        assert_eq!(classify("x.db", &bdb), BerkeleyDb);
        assert_eq!(classify("t.myi", &[0xfe, 0xfe, 0x07, 0x01]), MysqlDb);
        assert_eq!(classify("t.frm", &[0xfe, 0x01, 0x00, 0x00, 9]), MysqlDb);
    }

    #[test]
    fn shebangs() {
        assert_eq!(classify("run", b"#!/usr/bin/python3.9\nprint()"), PythonScript);
        assert_eq!(classify("run", b"#!/usr/bin/env python\n"), PythonScript);
        assert_eq!(classify("run", b"#!/bin/sh\nset -e\n"), ShellScript);
        assert_eq!(classify("run", b"#!/bin/bash\n"), ShellScript);
        assert_eq!(classify("run", b"#!/usr/bin/perl -w\n"), PerlScript);
        assert_eq!(classify("run", b"#!/usr/bin/ruby\n"), RubyScript);
        assert_eq!(classify("run", b"#!/usr/bin/env node\n"), NodeScript);
        assert_eq!(classify("run", b"#!/usr/bin/awk -f\n"), AwkScript);
        assert_eq!(classify("run", b"#!/usr/bin/tclsh\n"), TclScript);
        assert_eq!(classify("run", b"#!/usr/bin/php\n"), PhpScript);
        assert_eq!(classify("run", b"#!/opt/weird/interp\n"), OtherScript);
    }

    #[test]
    fn names_and_extensions() {
        assert_eq!(classify("src/main.c", b"int main(void) { return 0; }\n"), CSource);
        assert_eq!(classify("inc/util.hpp", b"// header\n"), CSource);
        assert_eq!(classify("lib/Foo.pm", b"package Foo;\n"), Perl5Module);
        assert_eq!(classify("app/model.rb", b"class Model\nend\n"), RubyModule);
        assert_eq!(classify("Makefile", b"all:\n\tcc -o x x.c\n"), Makefile);
        assert_eq!(classify("conf.m4", b"AC_INIT\n"), M4Macro);
        assert_eq!(classify("index.js", b"module.exports = 1;\n"), NodeScript);
        assert_eq!(classify("doc.tex", b"\\section{x}\n"), LatexDoc);
        assert_eq!(classify("a/b/page.html", b"<div>not at start</div>"), XmlHtml);
        assert_eq!(classify("f.f90", b"program x\nend\n"), FortranSource);
        assert_eq!(classify("s.scm", b"(define (f x) x)\n"), LispScheme);
    }

    #[test]
    fn shebang_beats_extension() {
        // A .rb file with a shebang is a Ruby *script* (Fig. 18), not module.
        assert_eq!(classify("tool.rb", b"#!/usr/bin/ruby\nputs 1\n"), RubyScript);
    }

    #[test]
    fn text_encodings() {
        assert_eq!(classify("README", b"plain ascii text\nwith lines\n"), AsciiText);
        assert_eq!(classify("notes", "héllo wörld — utf8\n".as_bytes()), Utf8Text);
        assert_eq!(classify("latin1", &[b'c', b'a', b'f', 0xE9, b'\n']), Iso8859Text);
        assert_eq!(classify("doc.xml.bak", b"<?xml version=\"1.0\"?><a/>"), XmlHtml);
        assert_eq!(classify("page", b"<!DOCTYPE html><html></html>"), XmlHtml);
        assert_eq!(classify("paper", b"\\documentclass{article}"), LatexDoc);
        assert_eq!(classify("doc.pdf", b"%PDF-1.4\n"), PdfPs);
    }

    #[test]
    fn unclassifiable_binary() {
        assert_eq!(classify("blob", &[0x00, 0x01, 0x02, 0x03, 0xFF]), OtherBinary);
    }

    #[test]
    fn utf8_cut_mid_codepoint_still_utf8() {
        let mut text = "日本語のテキスト".as_bytes().to_vec();
        text.truncate(text.len() - 1); // cut inside the last codepoint
        assert_eq!(classify("t", &text), Utf8Text);
    }

    #[test]
    fn signature_beats_name() {
        // An ELF named `script.py` is still an ELF.
        assert_eq!(classify("script.py", b"\x7fELF\x02\x01"), Elf);
    }
}
