(* A new session for every program a test runs, so no assertion depends
   on what an earlier program left in a session's caches. *)
let session ?(resolution = Fg_core.Resolution.Lexical) () =
  let module Config = Fg_core.Session.Config in
  Fg_core.Session.of_config (Config.with_resolution resolution Config.default)
