import android.app.Notification;
import android.net.Uri;

class Util {}

class R {
    void ring(Notification.Builder b, Uri u) {
        b.setSound(u);
    }
}
