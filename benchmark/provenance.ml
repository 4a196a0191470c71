(* Where a result came from.  Latency is the measuring host's: the page
   cache is warm and fsync costs whatever the data directory's filesystem
   makes it cost, so results record that filesystem along with the core
   count. *)

open Avqbench_lib

(* First line of a command's stdout, if it ran and exited 0. *)
let command_line prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let result =
    match Unix.create_process prog (Array.of_list (prog :: args)) devnull wr devnull with
    | exception Unix.Unix_error _ ->
      Unix.close wr;
      None
    | pid ->
      Unix.close wr;
      let line = In_channel.input_line (Unix.in_channel_of_descr rd) in
      (match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> line | _ -> None)
  in
  Unix.close rd;
  Unix.close devnull;
  result

(* Filesystem type of the mount holding [dir]: the longest mount point in
   /proc/self/mounts that prefixes its real path. *)
let fs_type dir =
  match Unix.realpath dir, In_channel.with_open_text "/proc/self/mounts" In_channel.input_all with
  | exception (Unix.Unix_error _ | Sys_error _) -> "unknown"
  | path, mounts ->
    let under mp =
      mp = "/" || path = mp
      || (String.length path > String.length mp
          && String.sub path 0 (String.length mp) = mp
          && path.[String.length mp] = '/')
    in
    List.fold_left
      (fun (best, ty) line ->
        match String.split_on_char ' ' line with
        | _ :: mp :: fstype :: _ when under mp && String.length mp >= String.length best ->
          (mp, fstype)
        | _ -> (best, ty))
      ("", "unknown")
      (String.split_on_char '\n' mounts)
    |> snd

let json ~seed ~serve_args ~out =
  let nproc =
    match Option.bind (command_line "nproc" []) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Jsonv.Obj
    [
      ("nproc", Jsonv.Num (float_of_int nproc));
      ("ocaml", Jsonv.Str Sys.ocaml_version);
      (* --git-dir: outside a repository, answer "unknown" rather than
         search the parent directories *)
      ("git_head",
       Jsonv.Str
         (Option.value ~default:"unknown"
            (command_line "git" [ "--git-dir=.git"; "rev-parse"; "HEAD" ])));
      ("serve", Jsonv.Str (String.concat " " ("avq" :: serve_args)));
      ("seed", Jsonv.Num (float_of_int seed));
      ("data_seed", Jsonv.Num (float_of_int Streams.data_seed));
      ("data_dir_fs", Jsonv.Str (fs_type out));
      ("page_cache", Jsonv.Str "warm");
    ]
