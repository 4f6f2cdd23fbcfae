(** Locate and validate the cmt artifacts dune produces under
    [_build/default], so the typed rules analyze exactly the code on
    disk.  A cmt whose stored source digest does not match the current
    source is reported as stale, never used: its lines and types would
    silently describe old code. *)

type loaded = {
  structure : Typedtree.structure;
  modname : string;  (** short module name, dune mangling stripped *)
  unit_name : string;  (** the compilation unit, e.g. ["Cddpd_obs__Counter"] *)
  cmt_path : string;
}

type status =
  | Loaded of loaded
  | Missing  (** no cmt artifact found in any build root *)
  | Stale of string  (** a cmt exists but its source digest mismatches *)
  | Unreadable of string  (** a cmt exists but could not be loaded *)

val status_reason : status -> string
(** Human-readable explanation of why a cmt cannot be used. *)

val find :
  root:string -> build_dirs:string list -> path:string -> source:string -> status
(** [find ~root ~build_dirs ~path ~source] searches each
    [root/<build_dir>/<dirname path>/.​*.{objs,eobjs}/byte/] for a cmt
    whose mangled module name matches [path]'s module, and validates it
    against [Digest.string source]. *)

val typecheck : path:string -> string -> (Typedtree.structure, string) result
(** Typecheck a standalone source string in-process against the stdlib
    (test fixtures; requires a compiler installation at runtime). *)

val save_cmt :
  cmt_path:string -> modname:string -> sourcefile:string ->
  Typedtree.structure -> unit
(** Write a cmt for a typechecked structure (test fixtures; the source
    digest is taken from [sourcefile] on disk). *)
